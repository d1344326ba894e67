#include "mtp/vid.hpp"

#include "util/strings.hpp"

namespace mrmtp::mtp {

Vid Vid::parse(std::string_view text) {
  const std::vector<std::string> parts = util::split(text, '.');
  check_depth(parts.size());
  Vid out;
  for (const auto& part : parts) {
    std::uint64_t v = 0;
    if (!util::parse_u64(part, v) || v > 0xffff) {
      throw util::CodecError("bad VID: " + std::string(text));
    }
    out.labels_[out.depth_++] = static_cast<std::uint16_t>(v);
  }
  if (out.empty()) throw util::CodecError("empty VID");
  return out;
}

std::string Vid::str() const {
  std::string out;
  for (std::size_t i = 0; i < depth_; ++i) {
    if (i != 0) out.push_back('.');
    out += std::to_string(labels_[i]);
  }
  return out;
}

}  // namespace mrmtp::mtp
