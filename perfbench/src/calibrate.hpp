// Host-speed calibration and peak-memory probes for one repetition.
//
// The benchmark's host is shared: other tenants slow this process down by up
// to 2x for tens of seconds at a time. Identical simulations
// then take very different wall times. calibration_seconds() times a fixed
// kernel that does the same kinds of work as the simulator: a binary-heap
// event queue, a node-based ordered map, and scattered reads and writes over
// a 32 MiB array. The runner times it next to each phase and scales the
// phase's wall time by a reference kernel time over the measured one. Phase
// times then read as if on a quiet host.
//
// The kernel is part of the benchmark's definition: editing it changes
// every scaled metric, so it must stay frozen between the commits compared.
#pragma once

#include <cstdint>

namespace perfbench {

/// Seconds the fixed calibration kernel takes on the calling thread now.
[[nodiscard]] double calibration_seconds();

/// Resets the process's resident-set high-water mark to its current RSS
/// (Linux /proc/self/clear_refs), so the calibration kernel's own memory
/// does not count toward the workload's peak. Returns false if unsupported.
bool reset_peak_rss();

/// The resident-set high-water mark since the last reset, in KiB
/// (/proc/self/status VmHWM); -1 if unavailable.
[[nodiscard]] std::int64_t peak_rss_kib();

}  // namespace perfbench
