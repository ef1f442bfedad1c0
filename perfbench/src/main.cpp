// perfbench — the repository benchmark program (see ../README.md).
//
//   perfbench --workload heavy-lone|sweep-journaled --seed N --seconds S
//             --trace 0|1 --serve-bin PATH [--git-rev REV] [--source-sha SHA]
//
// One run: generate the workload from the seed, run it offline in-process
// (offline_s, and the oracle), fork arsf_serve several times to time its
// start-up (setup_s), drive the last daemon with the workload over its
// socket, check every answer against the oracle and the daemon's --stats
// counters against the client's, and print the end-to-end metrics.  With
// --trace 1 the run continues with the traced in-process replay and prints
// the per-layer metrics instead.  The last line of stdout is the JSON
// result.  Scratch files go to .bench_run/ (removed at exit), span files to
// .bench_out/, both relative to the working directory.

#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "daemon.h"
#include "replay.h"
#include "serve/protocol.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer) || __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// The metrics BENCHMARK.json declares, in its order.  A run prints more
// (state_mb, error_rate, runner.service_ms.worstcase, ...) as `metric` /
// `layer-metric` lines; the declared set is what every workload can report.
const std::vector<std::string> kEndToEnd = {
    "setup_s",      "latency_p50_ms", "latency_tail_ms", "first_frame_p50_ms", "throughput_rps",
    "points_per_s", "offline_s",      "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "protocol.parse_us",         "protocol.encode_us_per_frame", "protocol.frame_bytes",
    "cache.key_us",              "cache.lookup_miss_us",         "cache.lookup_hit_us",
    "cache.insert_us",           "cache.hit_ratio",              "cache.load_ms",
    "runner.service_ms.clean",   "runner.service_ms.policy",     "runner.service_ms.bnb",
    "runner.service_ms.casestudy", "engine.worlds_per_s.t1",     "engine.worlds_per_s.tN",
    "engine.scaling",            "sweep.fresh_ratio",            "sweep.points_per_s_inproc",
    "journal.append_us",         "journal.frame_append_us",      "journal.bytes_per_request",
    "journal.open_ms",           "serve.queue_wait_ms",          "serve.queue_wait_tail_ms",
    "serve.overhead_ms",         "trace.overhead_pct"};

constexpr int kSetupSamples = 9;
constexpr const char* kWorkDir = ".bench_run";
constexpr const char* kOutDir = ".bench_out";

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string serve_bin;
  std::string git_rev = "unknown";
  std::string source_sha = "unknown";
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stoi(value);
    else if (flag == "--trace") o.trace = std::stoi(value);
    else if (flag == "--serve-bin") o.serve_bin = value;
    else if (flag == "--git-rev") o.git_rev = value;
    else if (flag == "--source-sha") o.source_sha = value;
    else throw std::invalid_argument("unknown option " + flag);
  }
  if (o.workload.empty() || o.seconds < 1 || o.seconds > 60 || (o.trace != 0 && o.trace != 1) ||
      o.serve_bin.empty()) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds 1..60 --trace 0|1 --serve-bin PATH");
  }
  return o;
}

unsigned hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The run's scratch directory inside the checkout, removed on every exit.
struct RunDir {
  fs::path path;
  explicit RunDir(const std::string& root)
      : path(fs::path{root} / ("run-" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~RunDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  [[nodiscard]] std::string operator/(const std::string& name) const { return (path / name).string(); }
};

/// Writes back the set-up's files before timing, so the measured phase does
/// not pay for flushing them when the daemon's journal calls fsync().
void sync_files(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

/// The host's busy and stolen CPU ticks so far, from /proc/stat.  Steal is
/// time a vCPU wanted to run while the hypervisor ran another guest: on a
/// shared host it slows every timed figure alike.
std::pair<double, double> host_busy_steal_ticks() {
  std::ifstream in{"/proc/stat"};
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  return {user + nice + system + irq + softirq + steal, steal};
}

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

struct Run {
  Metrics e2e;
  Metrics layers;
  std::size_t attempted = 0;
  std::size_t errors = 0;
};

/// Fills @p result; a CheckFailure leaves what was counted before it.
void run(const Options& options, const Workload& w, unsigned threads, Run& result) {
  RunDir dir{kWorkDir};
  const std::size_t n = w.requests.size();
  result.attempted = n;

  // ---- set-up outside every timing: cache store, offline run, seeded journal
  std::string cache_store;
  if (!w.prebuilt.empty()) {
    cache_store = dir / "store.jsonl";
    build_cache_store(w, cache_store);
  }
  const Offline offline = run_offline(w, cache_store);
  for (std::size_t i = 0; i < n; ++i) {
    if (offline.failed[i] != 0) throw CheckFailure(w.requests[i].id + " fails offline");
  }
  // The daemon re-saves its store at every clean stop, so it gets a copy and
  // the traced replay below still loads the pre-built store.  Every daemon
  // of the run (set-up samples and the measured one) starts from the same
  // seeded journal: the set-up samples accept no requests.
  const std::string daemon_store = dir / "daemon-store.jsonl";
  if (!cache_store.empty()) fs::copy_file(cache_store, daemon_store);
  const std::string state_dir = dir / "state";
  if (w.state_dir) seed_state_dir(w, offline, state_dir);
  sync_files(dir.path);

  // ---- setup_s: fork -> first accepted connection, median of several starts
  std::vector<std::string> args = {"--workers", std::to_string(threads), "--stats",
                                   "--max-queued", "1000000", "--cache", "268435456"};
  if (!cache_store.empty()) args.insert(args.end(), {"--cache-file", daemon_store});
  if (w.state_dir) args.insert(args.end(), {"--state-dir", state_dir});
  std::vector<double> ready_s;
  std::optional<Daemon> daemon;
  std::string socket;
  for (int k = 0; k < kSetupSamples; ++k) {
    const std::string tag = std::string{"d"} + std::to_string(k);
    // Relative to the checkout: a socket path must stay under 108 bytes.
    socket = (fs::relative(dir.path) / (tag + ".sock")).string();
    daemon.emplace(options.serve_bin, args, socket, dir / (tag + ".stderr"));
    ready_s.push_back(daemon->ready_s());
    if (k + 1 < kSetupSamples) {
      daemon->stop();
      daemon.reset();
    }
  }
  sync_files(dir.path);

  // ---- the measured phase
  std::vector<Outcome> outcomes(n);
  const auto [busy_before, steal_before] = host_busy_steal_ticks();
  const std::uint64_t lines = run_phase(socket, w, outcomes);
  const auto [busy_after, steal_after] = host_busy_steal_ticks();
  std::printf("host steal %.2f%% of busy CPU time during the measured phase\n",
              busy_after > busy_before
                  ? 100.0 * (steal_after - steal_before) / (busy_after - busy_before)
                  : 0.0);
  const auto latency_ms = [&](std::size_t i) {
    return (outcomes[i].done_s - outcomes[i].sent_s) * 1e3;
  };
  const double peak_rss_mb = daemon->peak_rss_mb();
  const DaemonStats stats = daemon->stop();
  daemon.reset();
  const double state_mb = w.state_dir ? mib(bytes_under(state_dir)) : 0.0;

  // Rates are medians over kBlocks blocks of consecutively completed
  // requests, each divided by the time its block took.
  std::vector<double> block_requests, block_points;
  {
    std::vector<std::size_t> by_done(n);
    for (std::size_t i = 0; i < n; ++i) by_done[i] = i;
    std::sort(by_done.begin(), by_done.end(), [&](std::size_t a, std::size_t b) {
      return outcomes[a].done_s < outcomes[b].done_s;
    });
    double block_start = 0.0;
    for (std::size_t k = 0; k < kBlocks; ++k) {
      const std::size_t lo = k * by_done.size() / kBlocks;
      const std::size_t hi = (k + 1) * by_done.size() / kBlocks;
      if (hi == lo) continue;
      double frames = 0.0;
      for (std::size_t j = lo; j < hi; ++j) frames += outcomes[by_done[j]].frames.size();
      const double block_end = outcomes[by_done[hi - 1]].done_s;
      block_requests.push_back(static_cast<double>(hi - lo) / (block_end - block_start));
      block_points.push_back(frames / (block_end - block_start));
      block_start = block_end;
    }
  }

  // ---- accounting: the daemon's exit counters against the client's
  std::printf("daemon stats %s\n", stats.line.c_str());
  if (stats.accepted + stats.deduped + stats.rejected != n ||
      stats.completed + stats.failed + stats.cancelled != stats.accepted ||
      stats.frames != lines) {
    throw CheckFailure("daemon counters disagree with the client: sent " + std::to_string(n) +
                       ", frames received " + std::to_string(lines));
  }

  // ---- oracle: every answer equals the offline runner's, byte for byte
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = outcomes[i];
    const std::vector<std::string>& expected = offline.frames[i];
    bool same = o.frames.size() == expected.size() &&
                o.done == arsf::serve::done_frame(w.requests[i].id, expected.size(), 0);
    for (std::size_t j = 0; same && j < expected.size(); ++j) {
      const std::optional<std::string> stripped = arsf::serve::strip_request_id(o.frames[j]);
      same = stripped && mask_from_cache(*stripped) == expected[j];
    }
    if (!same && ++result.errors <= 3) {
      std::printf("oracle mismatch on %s: %zu frames, first %s\n", w.requests[i].id.c_str(),
                  o.frames.size(), o.frames.empty() ? "-" : o.frames.front().c_str());
    }
  }

  // ---- end-to-end metrics
  std::vector<double> lat, first;
  std::size_t points = 0;
  double window_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    lat.push_back(latency_ms(i));
    first.push_back((outcomes[i].first_frame_s - outcomes[i].sent_s) * 1e3);
    points += outcomes[i].frames.size();
    window_s = std::max(window_s, outcomes[i].done_s);
  }
  const Tail tail = tail_of(lat);
  for (Lane lane : kScenarioLanes) {
    std::vector<double> lane_lat;
    for (std::size_t i = 0; i < n; ++i) {
      if (!w.requests[i].is_sweep && w.requests[i].lane == lane) lane_lat.push_back(latency_ms(i));
    }
    if (!lane_lat.empty()) {
      std::printf("latency lane %-10s p25 %9.3f p50 %9.3f p75 %9.3f ms (%zu requests)\n",
                  lane_name(lane), percentile(lane_lat, 25), median(lane_lat),
                  percentile(lane_lat, 75), lane_lat.size());
    }
  }
  Metrics& m = result.e2e;
  m.set("setup_s", median(ready_s), "s");
  m.set("latency_p50_ms", median(lat), "ms");
  m.set("latency_tail_ms", tail.value, "ms");
  m.set("first_frame_p50_ms", median(first), "ms");
  m.set("throughput_rps", median(block_requests), "req/s");
  m.set("points_per_s", median(block_points), "1/s");
  m.set("offline_s", offline.seconds, "s");
  std::printf("offline wall %.3f s; phase %.3f s, %zu requests, %zu result frames\n",
              offline.total_s, window_s, n, points);
  m.set("peak_rss_mb", peak_rss_mb, "MiB");
  m.set("state_mb", state_mb, "MiB");
  m.set("error_rate", static_cast<double>(result.errors) / static_cast<double>(n), "ratio");
  std::printf("latency tail is p%.3f over %zu requests; error_rate base %zu requests\n",
              tail.percentile, tail.samples, n);

  if (options.trace == 0) return;

  // ---- traced replay and the per-layer metrics
  const std::string span_file =
      (fs::path{kOutDir} / ("spans-" + w.name + "-seed" + std::to_string(options.seed) + ".jsonl"))
          .string();
  Traced traced = run_traced(w, offline, cache_store, dir / "replay", span_file);
  result.layers = std::move(traced.metrics);
  // One connection sends one request at a time, so no request queues for a
  // worker: the difference is the daemon's own overhead, and the two metrics
  // agree.
  std::vector<double> wait;
  for (std::size_t i = 0; i < n; ++i) wait.push_back(latency_ms(i) - traced.service_ms[i]);
  result.layers.set("serve.queue_wait_ms", median(wait), "ms");
  result.layers.set("serve.queue_wait_tail_ms", tail_of(wait).value, "ms");
  result.layers.set("serve.overhead_ms", median(wait), "ms");
  std::printf("serve overhead is %.3f%% of the latency p50 %.3f ms (%zu requests)\n",
              100.0 * median(wait) / median(lat), median(lat), n);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (kSanitized || std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr ||
      (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a %s%s build\n",
                 build_type.c_str(), kSanitized ? " sanitizer" : "");
    return 3;
  }
  const unsigned threads = hardware_threads();
  std::printf("provenance hardware_threads %u git_revision %s source_sha256 %s build_type %s "
              "cxx_flags \"%s\"\n",
              threads, options.git_rev.c_str(), options.source_sha.c_str(), build_type.c_str(),
              PERFBENCH_CXX_FLAGS);
  std::printf("run workload %s seed %llu seconds %d trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds, options.trace);
  std::fflush(stdout);

  Run result;
  std::string failure;
  try {
    const Workload workload =
        make_workload(options.workload, options.seed, options.seconds);
    print_properties(workload);
    std::fflush(stdout);
    run(options, workload, threads, result);
  } catch (const CheckFailure& e) {
    failure = e.what();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (failure.empty() && result.errors > 0) {
    failure = std::to_string(result.errors) + " answers differ from the offline oracle";
  }
  result.e2e.print_lines("metric");
  result.layers.print_lines("layer-metric");
  if (!failure.empty()) {
    std::printf("check failed: %s\n", failure.c_str());
    std::printf("{\"correct\": false, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {}}\n",
                std::max<std::size_t>(result.attempted, 1), std::max<std::size_t>(result.errors, 1));
    return 1;
  }
  const std::string metrics =
      options.trace == 1 ? result.layers.json(kPerLayer) : result.e2e.json(kEndToEnd);
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              result.attempted, result.errors, metrics.c_str());
  return 0;
}
