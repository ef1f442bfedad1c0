#pragma once
// Seeded request generators for the benchmark workloads.  The daemon
// and the offline oracle receive only the generated request lines; nothing
// in the program under test sees the seed or the workload name.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "scenario/sweep.h"

namespace perfbench {

/// Execution lane of a request, as the runner metrics group it.
enum class Lane { kClean, kPolicy, kWorstcase, kBnb, kCasestudy, kSweep };
inline constexpr Lane kScenarioLanes[] = {Lane::kClean, Lane::kPolicy, Lane::kWorstcase,
                                          Lane::kBnb, Lane::kCasestudy};

[[nodiscard]] const char* lane_name(Lane lane);
[[nodiscard]] Lane lane_of(const arsf::scenario::Scenario& scenario);

inline constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

struct Request {
  std::string id;    ///< request_id on the wire
  std::string line;  ///< the request line the daemon receives
  bool is_sweep = false;
  arsf::scenario::Scenario scenario;  ///< valid when !is_sweep
  arsf::scenario::SweepSpec sweep;    ///< valid when is_sweep
  Lane lane = Lane::kSweep;
  /// Index of the earlier request whose id (and line) this one re-submits,
  /// or kNone.  The daemon answers it from its journal's frame spool.
  std::size_t resubmit_of = kNone;
};

/// A workload, sent in a closed loop over one connection: each request
/// goes out when the previous one's done frame is in.  The daemon always
/// runs with a shared --cache.
struct Workload {
  std::string name;
  std::vector<Request> requests;  ///< generation order
  bool state_dir = false;         ///< daemon runs with --state-dir
  /// Runner fan-out of the offline run (0 = hardware threads).
  unsigned offline_threads = 0;
  /// Scenarios whose results are written to the daemon's --cache-file
  /// before timing (empty = no cache file).
  std::vector<arsf::scenario::Scenario> prebuilt;
};

/// Generates workload @p name from @p seed, sized so its measured phase runs
/// for about @p seconds on a 4-vCPU host; the amount of work depends on the
/// seed and @p seconds only, never on measured speed, so two builds always
/// do identical work.  Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed, int seconds);

/// Prints the measured input properties of @p workload: exact-repeat share,
/// cross-connection grid overlap, lane mix and estimated_worlds() quartiles.
void print_properties(const Workload& workload);

}  // namespace perfbench
