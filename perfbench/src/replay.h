#pragma once
// In-process execution of a workload: the offline run that is both the
// `offline_s` measurement and the oracle every daemon answer is checked
// against, and the traced replay that splits each request into layers.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {

/// Result frames with the one field a daemon answer may differ in masked:
/// whether the metrics came from the result cache.
[[nodiscard]] std::string mask_from_cache(std::string frame);

/// Blocks a run's work is cut into for the medians behind offline_s and the
/// closed-loop rates: a transient slowdown of a shared host then moves one
/// block, not the reported figure.
inline constexpr std::size_t kBlocks = 5;

struct Offline {
  /// offline_s: the cache-store load plus kBlocks times the median time of
  /// kBlocks consecutive, equal-count blocks of requests.
  double seconds = 0.0;
  double total_s = 0.0;  ///< the plain wall time of the whole offline run
  /// Per request: the offline runner's to_json() frames, masked.
  std::vector<std::vector<std::string>> frames;
  std::vector<std::size_t> failed;  ///< per request: frames that are not ok
};

/// Builds the cache store @p path from @p workload.prebuilt (untimed set-up).
void build_cache_store(const Workload& workload, const std::string& path);

/// Runs @p workload in-process with no daemon, the way an offline process
/// would: one request after the other, single scenarios with their default
/// engine fan-out and sweeps through run_sweep() over @p cache_store
/// (loaded inside the timing), on a Runner of workload.offline_threads.
[[nodiscard]] Offline run_offline(const Workload& workload, const std::string& cache_store);

/// Journals every request of @p workload under a fresh id into a new state
/// directory @p dir with the frames in @p offline: a journal of the
/// workload's size for the daemon to replay at start-up.
void seed_state_dir(const Workload& workload, const Offline& offline, const std::string& dir);

struct Traced {
  Metrics metrics;  ///< the per-layer metrics
  /// By request index: the replay's time on the daemon's path (every span
  /// but the fan-out run; journal spans only when the daemon journals).
  std::vector<double> service_ms;
};

/// Replays @p workload in-process through each layer's public functions in
/// the daemon's order with every call inside a recorded span, writes the
/// spans as JSONL to @p span_file, prints the per-layer self times and
/// checks every replayed frame against @p offline.  The tracing overhead is
/// the recorder's measured cost per span times the spans recorded.
/// @p scratch is an empty directory for the journal and cache store.
[[nodiscard]] Traced run_traced(const Workload& workload, const Offline& offline,
                                const std::string& cache_store, const std::string& scratch,
                                const std::string& span_file);

}  // namespace perfbench
