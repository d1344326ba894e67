// Small string utilities shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mrmtp::util {

/// Splits `s` on `sep`, keeping empty fields ("a..b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view s, char sep);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.

/// Parses a non-negative decimal integer; returns false on any non-digit or
/// empty input. Accepts values up to 2^64-1.
bool parse_u64(std::string_view s, std::uint64_t& out);

}  // namespace mrmtp::util
