#include "replay.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

#include "scenario/result_cache.h"
#include "scenario/runner.h"
#include "scenario/sink.h"
#include "scenario/sweep.h"
#include "serve/journal.h"
#include "serve/protocol.h"

namespace perfbench {

namespace fs = std::filesystem;
using arsf::scenario::CollectingSink;
using arsf::scenario::ResultCache;
using arsf::scenario::Runner;
using arsf::scenario::RunnerOptions;
using arsf::scenario::Scenario;
using arsf::scenario::ScenarioResult;
using arsf::serve::Journal;
using arsf::serve::JournalState;

std::string mask_from_cache(std::string frame) {
  static const std::string kCached = "\"from_cache\":true";
  const std::size_t at = frame.find(kCached);
  if (at != std::string::npos) frame.replace(at, kCached.size(), "\"from_cache\":false");
  return frame;
}

void build_cache_store(const Workload& workload, const std::string& path) {
  ResultCache cache;
  RunnerOptions options;
  options.cache = &cache;
  const std::vector<ScenarioResult> results = Runner{options}.run_batch(workload.prebuilt);
  for (const ScenarioResult& result : results) {
    if (!result.ok()) throw CheckFailure("pre-building the cache store failed: " + result.error);
  }
  cache.save_file(path);
}

Offline run_offline(const Workload& workload, const std::string& cache_store) {
  const std::size_t n = workload.requests.size();
  Offline out;
  out.frames.resize(n);
  out.failed.assign(n, 0);
  const auto record = [&out](std::size_t request, std::size_t index, const ScenarioResult& r) {
    out.frames[request].push_back(mask_from_cache(arsf::scenario::to_json(index, r)));
    if (!r.ok()) ++out.failed[request];
  };

  const Clock::time_point start = Clock::now();
  std::vector<double> request_s(n, 0.0);
  ResultCache cache;
  if (!cache_store.empty()) cache.load_file(cache_store);
  const double load_s = seconds_between(start, Clock::now());
  RunnerOptions options;
  options.cache = &cache;
  options.num_threads = workload.offline_threads;
  const Runner runner{options};
  for (std::size_t i = 0; i < n; ++i) {
    const Request& request = workload.requests[i];
    if (request.resubmit_of != kNone) continue;  // answered from the first run's frames
    const Clock::time_point begin = Clock::now();
    if (request.is_sweep) {
      CollectingSink sink;
      arsf::scenario::run_sweep(request.sweep, runner, sink);
      for (std::size_t j = 0; j < sink.results().size(); ++j) record(i, j, sink.results()[j]);
    } else {
      record(i, 0, runner.run(request.scenario));
    }
    request_s[i] = seconds_between(begin, Clock::now());
  }
  out.total_s = seconds_between(start, Clock::now());
  std::vector<double> blocks(kBlocks, 0.0);
  for (std::size_t i = 0; i < n; ++i) blocks[i * kBlocks / n] += request_s[i];
  out.seconds = load_s + static_cast<double>(kBlocks) * median(blocks);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t of = workload.requests[i].resubmit_of;
    if (of != kNone) {
      out.frames[i] = out.frames[of];
      out.failed[i] = out.failed[of];
    }
  }
  return out;
}

namespace {

enum SpanName {
  kRequest,
  kParse,
  kEncode,
  kKey,
  kLookupHit,
  kLookupMiss,
  kInsert,
  kSerial,
  kFanout,
  kSweep,
  kEvent,
  kFrame,
  kSync,
  kReadFrames,
  kSpanNames
};

constexpr const char* kSpanText[kSpanNames] = {
    "request",
    "serve.protocol.parse",
    "serve.protocol.encode",
    "scenario.result_cache.key",
    "scenario.result_cache.lookup_hit",
    "scenario.result_cache.lookup_miss",
    "scenario.result_cache.insert",
    "scenario.runner.serial",
    "scenario.runner.fanout",
    "scenario.sweep.run",
    "serve.journal.event",
    "serve.journal.frame",
    "serve.journal.sync",
    "serve.journal.read_frames",
};

/// Everything the daemon journals for one request, in its order: the
/// accepted and running events, every frame, the frame fsync and the
/// terminal event.  @p frames are complete protocol frames, done included.
/// @p span(name, call) runs each call, inside a span when tracing.
template <typename Span>
void journal_request(Journal& journal, const std::string& id, const std::string& line,
                     const std::vector<std::string>& frames, std::size_t failed, Span&& span) {
  span(kEvent, [&] { journal.record_accepted(id, "socket", line); });
  span(kEvent, [&] { journal.record_state(id, JournalState::kRunning); });
  for (const std::string& frame : frames) span(kFrame, [&] { journal.append_frame(id, frame); });
  span(kSync, [&] { journal.sync_frames(id); });
  span(kEvent, [&] {
    journal.record_state(id, JournalState::kDone, frames.size() - 1, failed);
    journal.close_frames(id);
  });
}

}  // namespace

void seed_state_dir(const Workload& workload, const Offline& offline, const std::string& dir) {
  Journal journal{dir};
  journal.open();
  for (std::size_t i = 0; i < workload.requests.size(); ++i) {
    const Request& request = workload.requests[i];
    if (request.resubmit_of != kNone) continue;
    const std::string id = std::string{"p"}.append(std::to_string(i));
    // The same request line under the new id.
    const std::string line = with_request_id(request.line.substr(request.line.find(',')), id);
    std::vector<std::string> frames;
    for (const std::string& frame : offline.frames[i]) frames.push_back(with_request_id(frame, id));
    frames.push_back(arsf::serve::done_frame(id, offline.frames[i].size(), offline.failed[i]));
    journal_request(journal, id, line, frames, offline.failed[i],
                    [](SpanName, const auto& call) { call(); });
  }
}

// ---- traced replay ----------------------------------------------------------

namespace {

std::string layer_of(int name) {
  const std::string text = kSpanText[name];
  const std::size_t dot = text.rfind('.');
  return dot == std::string::npos ? "replay" : text.substr(0, dot);
}

struct Span {
  int name = 0;
  int parent = -1;
  std::size_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// In-memory span recorder.
class Tracer {
 public:
  int begin(int name, std::size_t request) {
    spans_.push_back({name, current_, request, now_ns(), 0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  void rename(int id, int name) { spans_[static_cast<std::size_t>(id)].name = name; }
  /// Runs @p call inside a span named @p name.
  template <typename Call>
  void span(int name, std::size_t request, Call&& call) {
    const int id = begin(name, request);
    call();
    end(id);
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
        .count();
  }
  int current_ = -1;
  std::vector<Span> spans_;
};

struct ReplayRun {
  double seconds = 0.0;
  std::size_t grid_points = 0;
  std::size_t fresh_points = 0;
  std::size_t frames_encoded = 0;
  std::size_t frame_bytes = 0;
  std::size_t journaled = 0;
  arsf::scenario::CacheStats cache;  ///< the daemon-path lookups only
  double cache_load_ms = 0.0;
  std::size_t cache_loaded = 0;
  /// (lane, estimated worlds) of each serial engine run, in span order.
  std::vector<std::pair<Lane, double>> serial_runs;
};

/// One replay of every request through the layers, in the daemon's order.
/// With @p store_out set, the replay's cache is saved there at the end.
ReplayRun replay(const Workload& workload, const Offline& offline, const std::string& cache_store,
                 const std::string& state_dir, const std::string& store_out, Tracer& tracer) {
  ReplayRun run;
  ResultCache cache;
  if (!cache_store.empty()) {
    const Clock::time_point load = Clock::now();
    run.cache_loaded = cache.load_file(cache_store).loaded;
    run.cache_load_ms = seconds_between(load, Clock::now()) * 1e3;
  }
  Journal journal{state_dir};
  journal.open();
  RunnerOptions serial_options;
  serial_options.num_threads = 1;
  const Runner serial{serial_options};
  const Runner fanout{};
  RunnerOptions sweep_options = serial_options;
  sweep_options.cache = &cache;
  const Runner sweep_runner{sweep_options};

  // One scenario with a serial engine, as the daemon runs it, and again with
  // its default fan-out; the two must agree.  Returns the serial result.
  const auto engine_runs = [&](Scenario scenario, std::size_t i) {
    run.serial_runs.emplace_back(
        lane_of(scenario), static_cast<double>(arsf::scenario::estimated_worlds(scenario)));
    const unsigned fan_out = scenario.num_threads;
    scenario.num_threads = 1;
    ScenarioResult result;
    tracer.span(kSerial, i, [&] { result = serial.run(scenario); });
    scenario.num_threads = fan_out;
    tracer.span(kFanout, i, [&] {
      if (arsf::scenario::to_json(0, fanout.run(scenario)) != arsf::scenario::to_json(0, result)) {
        throw CheckFailure(workload.requests[i].id + ": fan-out run differs from the serial run");
      }
    });
    return result;
  };

  std::uint64_t rereads = 0;  // lookups off the daemon's path
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < workload.requests.size(); ++i) {
    const Request& request = workload.requests[i];
    const int root = tracer.begin(kRequest, i);
    std::optional<arsf::serve::Request> parsed;
    tracer.span(kParse, i, [&] { parsed = arsf::serve::parse_request(request.line); });

    std::vector<std::string> frames;
    std::size_t failed = 0;
    if (request.resubmit_of != kNone) {
      // A finished id: the daemon answers from the journal's frame spool.
      tracer.span(kReadFrames, i, [&] { frames = journal.read_frames(request.id); });
    } else {
      std::vector<ScenarioResult> results;
      if (parsed->is_sweep) {
        parsed->sweep.base.num_threads = 1;
        tracer.span(kSweep, i, [&] {
          CollectingSink sink;
          arsf::scenario::run_sweep(parsed->sweep, sweep_runner, sink);
          results = std::move(sink).take();
        });
        run.grid_points += results.size();
        // run_sweep() looks its points up inside; the read side is timed by
        // looking every point up again, off the daemon's path.  Each one is
        // stored by now, fresh points included.
        for (std::size_t j = 0; j < results.size(); ++j) {
          const Scenario point = parsed->sweep.at(j);
          std::optional<arsf::scenario::CacheKey> key;
          std::optional<ScenarioResult> hit;
          tracer.span(kKey, i, [&] { key = arsf::scenario::cache_key(point); });
          tracer.span(kLookupHit, i, [&] { hit = cache.lookup(*key); });
          if (!hit) throw CheckFailure(request.id + ": a grid point is missing from the cache");
          ++rereads;
        }
        // The engine metrics re-run each point the sweep evaluated fresh;
        // these runs are not part of the daemon's path.
        for (std::size_t j = 0; j < results.size(); ++j) {
          if (results[j].from_cache) continue;
          ++run.fresh_points;
          Scenario point = parsed->sweep.at(j);
          point.num_threads = 0;
          if (arsf::scenario::to_json(j, engine_runs(point, i)) !=
              arsf::scenario::to_json(j, results[j])) {
            throw CheckFailure(request.id + ": a re-run grid point differs from the sweep's");
          }
        }
      } else {
        Scenario scenario = parsed->scenario;
        std::optional<arsf::scenario::CacheKey> key;
        std::optional<ScenarioResult> hit;
        tracer.span(kKey, i, [&] { key = arsf::scenario::cache_key(scenario); });
        const int lookup = tracer.begin(kLookupMiss, i);
        hit = cache.lookup(*key);
        tracer.end(lookup);
        if (hit) {
          tracer.rename(lookup, kLookupHit);
          results.push_back(arsf::scenario::cache_hit_frame(*hit, scenario.name));
        } else {
          results.push_back(engine_runs(scenario, i));
          tracer.span(kInsert, i, [&] { cache.insert(*key, results.back()); });
        }
      }
      tracer.span(kEncode, i, [&] {
        for (std::size_t j = 0; j < results.size(); ++j) {
          frames.push_back(arsf::serve::result_frame(request.id, j, results[j]));
          failed += !results[j].ok();
        }
        frames.push_back(arsf::serve::done_frame(request.id, results.size(), failed));
      });
      run.frames_encoded += frames.size();
      for (const std::string& frame : frames) run.frame_bytes += frame.size() + 1;
      journal_request(journal, request.id, request.line, frames, failed,
                      [&](SpanName name, const auto& call) { tracer.span(name, i, call); });
      ++run.journaled;
    }
    tracer.end(root);

    // The replay answers exactly what the daemon must: the offline frames.
    const std::vector<std::string>& expected = offline.frames[i];
    bool same = frames.size() == expected.size() + 1;
    for (std::size_t j = 0; same && j < expected.size(); ++j) {
      same = mask_from_cache(*arsf::serve::strip_request_id(frames[j])) == expected[j];
    }
    if (!same) throw CheckFailure(request.id + ": replayed frames differ from the offline run");
  }
  run.seconds = seconds_between(start, Clock::now());
  run.cache = cache.stats();
  run.cache.hits -= rereads;
  if (!store_out.empty()) cache.save_file(store_out);
  return run;
}

void write_spans(const Workload& workload, const std::vector<Span>& spans,
                 const std::string& path) {
  fs::create_directories(fs::path{path}.parent_path());
  std::ofstream out{path};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\"" << kSpanText[s.name]
        << "\",\"request_id\":\"" << workload.requests[s.request].id
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write the span file " + path);
}

/// Seconds one begin/end pair costs the recorder, measured on a scratch
/// tracer.  The spans wrap calls from outside the program, so this is all
/// that tracing adds to a replay.
double span_cost_s() {
  constexpr int kPairs = 200'000;
  Tracer scratch;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kPairs; ++i) scratch.end(scratch.begin(kParse, 0));
  return seconds_between(start, Clock::now()) / kPairs;
}

}  // namespace

Traced run_traced(const Workload& workload, const Offline& offline, const std::string& cache_store,
                  const std::string& scratch, const std::string& span_file) {
  Tracer tracer;
  const std::string state_dir = scratch + "/traced";
  const std::string own_store = scratch + "/store.jsonl";
  const ReplayRun run = replay(workload, offline, cache_store, state_dir,
                               cache_store.empty() ? own_store : "", tracer);
  const std::vector<Span>& spans = tracer.spans();
  write_spans(workload, spans, span_file);
  std::printf("trace spans %zu written to %s\n", spans.size(), span_file.c_str());

  // Self time per span and per layer.
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.us();
  }
  std::map<std::string, double> layer_self_us;
  std::vector<std::vector<double>> by_name(kSpanNames);
  Traced traced;
  traced.service_ms.assign(workload.requests.size(), 0.0);
  double request_total_us = 0.0;
  std::map<Lane, std::vector<double>> lane_ms;
  std::size_t serial_index = 0;
  double serial_us = 0.0, fanout_us = 0.0, worlds = 0.0, sweep_us = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    layer_self_us[layer_of(s.name)] += s.us() - child_us[i];
    by_name[static_cast<std::size_t>(s.name)].push_back(s.us());
    const Request& request = workload.requests[s.request];
    if (s.name == kRequest) {
      request_total_us += s.us();
      continue;
    }
    const bool journal = s.name == kEvent || s.name == kFrame || s.name == kSync;
    // Sweeps: run_sweep() does the keying, lookups and serial runs on the
    // daemon's path; the spans of those calls are re-runs for the metrics.
    const bool off_path = s.name == kFanout ||
                          (request.is_sweep &&
                           (s.name == kSerial || s.name == kKey || s.name == kLookupHit));
    if (!off_path && (!journal || workload.state_dir)) {
      traced.service_ms[s.request] += s.us() / 1e3;
    }
    if (s.name == kSerial) {
      const auto& [lane, estimated] = run.serial_runs[serial_index++];
      lane_ms[lane].push_back(s.us() / 1e3);
      serial_us += s.us();
      worlds += estimated;
    }
    if (s.name == kFanout) fanout_us += s.us();
    if (s.name == kSweep) sweep_us += s.us();
  }
  double layers_us = 0.0;
  for (const auto& [layer, us] : layer_self_us) {
    std::printf("layer %-24s self_ms %12.3f share %6.2f%%\n", layer.c_str(), us / 1e3,
                100.0 * us / request_total_us);
    if (layer != "replay") layers_us += us;
  }
  // Every call the daemon makes runs inside a layer span; what is left is
  // the replay's own bookkeeping, which must stay small for the self times
  // to account for the request.
  constexpr double kTolerancePct = 5.0;
  const double unaccounted_pct = 100.0 * (1.0 - layers_us / request_total_us);
  std::printf("trace self-time check: layers cover %.2f%% of %.3f ms of requests (tolerance %.1f%%)\n",
              100.0 - unaccounted_pct, request_total_us / 1e3, kTolerancePct);
  if (unaccounted_pct > kTolerancePct) {
    throw CheckFailure("layer self times leave " + std::to_string(unaccounted_pct) +
                       "% of the replayed requests unaccounted");
  }

  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  Metrics& m = traced.metrics;
  const auto med = [&](SpanName name) { return median(by_name[name]); };
  m.set("protocol.parse_us", med(kParse), "us");
  double encode_us = 0.0;
  for (double us : by_name[kEncode]) encode_us += us;
  m.set("protocol.encode_us_per_frame",
        run.frames_encoded ? encode_us / static_cast<double>(run.frames_encoded) : 0.0, "us");
  m.set("protocol.frame_bytes",
        run.frames_encoded ? static_cast<double>(run.frame_bytes) / run.frames_encoded : 0.0,
        "bytes");
  m.set("cache.key_us", med(kKey), "us");
  m.set("cache.lookup_miss_us", med(kLookupMiss), "us");
  m.set("cache.lookup_hit_us", med(kLookupHit), "us");
  m.set("cache.insert_us", med(kInsert), "us");
  const double lookups = static_cast<double>(run.cache.hits + run.cache.misses);
  m.set("cache.hit_ratio", lookups ? static_cast<double>(run.cache.hits) / lookups : 0.0, "ratio");
  std::printf("cache lookups %.0f hits %llu misses %llu inserts %llu\n", lookups,
              static_cast<unsigned long long>(run.cache.hits),
              static_cast<unsigned long long>(run.cache.misses),
              static_cast<unsigned long long>(run.cache.inserts));
  std::size_t span_counts[kSpanNames];
  for (int name = 0; name < kSpanNames; ++name) span_counts[name] = by_name[name].size();
  std::printf("cache key/hit/miss/insert samples %zu %zu %zu %zu\n", span_counts[kKey],
              span_counts[kLookupHit], span_counts[kLookupMiss], span_counts[kInsert]);

  // cache.load_ms: the store the daemon loads at start-up, or (no store
  // configured) the store this workload's results make.
  double load_ms = run.cache_load_ms;
  std::size_t loaded = run.cache_loaded;
  if (cache_store.empty()) {
    ResultCache fresh;
    const Clock::time_point load = Clock::now();
    loaded = fresh.load_file(own_store).loaded;
    load_ms = seconds_between(load, Clock::now()) * 1e3;
  }
  m.set("cache.load_ms", load_ms, "ms");
  std::printf("cache store entries loaded %zu\n", loaded);

  for (Lane lane : kScenarioLanes) {
    const auto found = lane_ms.find(lane);
    const std::vector<double> none;
    const std::vector<double>& sample = found == lane_ms.end() ? none : found->second;
    m.set(std::string{"runner.service_ms."} + lane_name(lane), median(sample), "ms");
    std::printf("runner lane %-10s serial runs %zu\n", lane_name(lane), sample.size());
  }
  m.set("engine.worlds_per_s.t1", serial_us ? worlds / (serial_us / 1e6) : 0.0, "1/s");
  m.set("engine.worlds_per_s.tN", fanout_us ? worlds / (fanout_us / 1e6) : 0.0, "1/s");
  m.set("engine.scaling", fanout_us ? serial_us / fanout_us : 0.0, "ratio");
  std::printf("engine threads 1 vs %u over %zu runs (%.0f estimated worlds)\n", threads,
              span_counts[kSerial], worlds);
  m.set("sweep.fresh_ratio",
        run.grid_points ? static_cast<double>(run.fresh_points) / run.grid_points : 0.0, "ratio");
  m.set("sweep.points_per_s_inproc", sweep_us ? run.grid_points / (sweep_us / 1e6) : 0.0, "1/s");
  std::printf("sweep grid points %zu fresh %zu\n", run.grid_points, run.fresh_points);

  m.set("journal.append_us", med(kEvent), "us");
  m.set("journal.frame_append_us", med(kFrame), "us");
  m.set("journal.bytes_per_request",
        run.journaled ? static_cast<double>(bytes_under(state_dir)) / run.journaled : 0.0, "bytes");
  {
    Journal reopened{state_dir};
    const Clock::time_point open = Clock::now();
    const arsf::serve::JournalLoadReport report = reopened.open();
    m.set("journal.open_ms", seconds_between(open, Clock::now()) * 1e3, "ms");
    std::printf("journal reopen records %zu rejected %zu\n", report.records, report.rejected);
  }
  const double span_s = span_cost_s();
  m.set("trace.overhead_pct", 100.0 * span_s * static_cast<double>(spans.size()) / run.seconds,
        "%");
  std::printf("trace recorder %.1f ns per span, %zu spans, replay %.3f s\n", span_s * 1e9,
              spans.size(), run.seconds);
  return traced;
}

}  // namespace perfbench
