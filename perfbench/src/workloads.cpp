#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "common.h"
#include "scenario/result_cache.h"
#include "vehicle/casestudy.h"
#include "vehicle/landshark.h"

namespace perfbench {

using arsf::scenario::AnalysisKind;
using arsf::scenario::PolicyKind;
using arsf::scenario::Scenario;
using arsf::scenario::SweepSpec;
using arsf::sched::ScheduleKind;

const char* lane_name(Lane lane) {
  switch (lane) {
    case Lane::kClean: return "clean";
    case Lane::kPolicy: return "policy";
    case Lane::kWorstcase: return "worstcase";
    case Lane::kBnb: return "bnb";
    case Lane::kCasestudy: return "casestudy";
    case Lane::kSweep: return "sweep";
  }
  return "?";
}

Lane lane_of(const Scenario& scenario) {
  switch (scenario.analysis) {
    case AnalysisKind::kWorstCase:
    case AnalysisKind::kWorstCaseFast: return Lane::kWorstcase;
    case AnalysisKind::kWorstCaseOverSetsBnb: return Lane::kBnb;
    case AnalysisKind::kCaseStudy: return Lane::kCasestudy;
    default:
      return scenario.policy == PolicyKind::kNone || scenario.fa == 0 ? Lane::kClean
                                                                       : Lane::kPolicy;
  }
}

namespace {

/// splitmix64: tiny, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return Rng{seed * 0x2545f4914f6cdd1dULL + salt}.next();
}

/// World count of integer @p widths on the unit grid.
double worlds_product(const std::vector<double>& widths) {
  double product = 1.0;
  for (double w : widths) product *= w + 1.0;
  return product;
}

/// @p n widths in [lo, hi] whose world count lies in [min_worlds, max_worlds].
std::vector<double> draw_widths(Rng& rng, std::size_t n, int lo, int hi, double min_worlds,
                                double max_worlds) {
  for (;;) {
    std::vector<double> widths(n);
    for (double& w : widths) w = rng.range(lo, hi);
    const double worlds = worlds_product(widths);
    if (worlds >= min_worlds && worlds <= max_worlds) return widths;
  }
}

std::string canonical_text(const Scenario& scenario) {
  return arsf::scenario::canonical_scenario(scenario).to_json();
}

Request scenario_request(Scenario scenario, std::size_t index) {
  scenario.validate();
  Request request;
  request.id = "q" + std::to_string(index);
  request.lane = lane_of(scenario);
  request.line = with_request_id(scenario.to_json(), request.id);
  request.scenario = std::move(scenario);
  return request;
}

Request sweep_request(SweepSpec spec, std::size_t index) {
  spec.validate();
  Request request;
  request.id = "q" + std::to_string(index);
  request.is_sweep = true;
  request.line = with_request_id(spec.to_json(), request.id);
  request.sweep = std::move(spec);
  return request;
}

// ---- heavy-lone ---------------------------------------------------------------
//
// One client, one request at a time, every request expensive and distinct:
// branch-and-bound worst cases over all subsets at n = 15-16, policy-lane
// Table I rows 5-6, n = 9 clean enumeration and the LandShark case study.
// Row 7 is left out: one of its requests costs 0.4-2.9 s even fanned out.
// So are n = 17-18: their cost moves with where the wider sensors sit, and
// the latency tail, which they make up, moved by half from seed to seed.
// The engine takes nearly all of each request's time while the other
// workers idle.

/// Request @p round of lane @p kind.  Discrete choices that change the cost
/// (n, table row, schedule) rotate with @p round so every seed gets the same
/// mix; the seed draws only choices that keep the cost (which sensors carry
/// which width, sampling seeds) or keep it within a narrow band.
Scenario heavy_scenario(Rng& rng, int kind, std::size_t round) {
  Scenario s;
  switch (kind) {
    case 0: {  // BnB over all subsets: ones with three width-2 sensors placed at random
      const std::size_t n = round % 2 == 0 ? 15 : 16;
      s.analysis = AnalysisKind::kWorstCaseOverSetsBnb;
      s.over_all_sets = true;
      s.fa = 2;
      s.widths.assign(n, 1.0);
      for (int placed = 0; placed < 3;) {
        double& w = s.widths[static_cast<std::size_t>(rng.range(0, static_cast<int>(n) - 1))];
        if (w == 1.0) {
          w = 2.0;
          ++placed;
        }
      }
      break;
    }
    case 1: {  // policy lane: Table I rows 5 and 6, ids shuffled
      // The last two widths take one of a few pairs with (nearly) the same
      // world count as the row's own, so the variants cost alike.
      static const double kRow5[][2] = {{14, 20}, {13, 21}, {15, 19}};
      static const double kRow6[][2] = {{5, 20}, {4, 24}, {6, 17}, {3, 30}};
      const bool row5 = round % 3 != 2;
      const double* pair = row5 ? kRow5[rng.range(0, 2)] : kRow6[rng.range(0, 3)];
      s.widths = {5, 5, 5, pair[0], pair[1]};
      s.fa = row5 ? 1 : 2;
      for (std::size_t i = s.widths.size() - 1; i > 0; --i) {
        std::swap(s.widths[i], s.widths[static_cast<std::size_t>(rng.range(0, static_cast<int>(i)))]);
      }
      s.schedule = round % 3 == 1 ? ScheduleKind::kDescending : ScheduleKind::kAscending;
      break;
    }
    case 2: {  // clean enumeration at n = 9, 2.2-2.5 million worlds
      s.widths = draw_widths(rng, 9, 1, 9, 2.2e6, 2.5e6);
      s.fa = 0;
      s.policy = PolicyKind::kNone;
      break;
    }
    default: {  // LandShark case study, fresh sampling seed
      s.analysis = AnalysisKind::kCaseStudy;
      s.widths = arsf::vehicle::make_landshark_sensing().config.widths();
      s.step = 0.01;
      s.schedule = round % 2 == 0 ? ScheduleKind::kAscending : ScheduleKind::kDescending;
      s.rounds = 6000;
      s.seed = rng.next();
      s.policy_options = arsf::vehicle::CaseStudyConfig::default_policy_options();
      break;
    }
  }
  return s;
}

Workload make_heavy_lone(std::uint64_t seed, int seconds) {
  Workload w;
  w.name = "heavy-lone";
  Rng rng{mix(seed, 0x4ea7)};
  std::unordered_set<std::string> seen;
  const std::size_t total = static_cast<std::size_t>(10 * seconds);
  for (std::size_t i = 0; i < total; ++i) {
    for (int attempt = 0;; ++attempt) {
      if (attempt > 1000) throw std::logic_error("heavy-lone ran out of distinct scenarios");
      Scenario s = heavy_scenario(rng, static_cast<int>(i % 4), i / 4);
      s.name = "heavy/" + std::string{lane_name(lane_of(s))} + "/" + std::to_string(i);
      s.description = "heavy-lone benchmark request";
      s.validate();
      if (seen.insert(canonical_text(s)).second) {
        w.requests.push_back(scenario_request(std::move(s), i));
        break;
      }
    }
  }
  return w;
}

// ---- sweep-journaled ----------------------------------------------------------
//
// One client streaming Table I-style grids through the crash-safe daemon.
// A cache store pre-built from an earlier day's grids holds three quarters
// of each grid's width sets; every tenth request re-submits a finished id.
// The width sets left to compute fresh all have 4000-6000 worlds, so every
// grid costs about the same and the latency figures do not hang on how many
// large grids a seed happens to draw.  Computing them outweighs the four
// fsyncs the journal makes per request, which a busy shared host slows the
// most.

SweepSpec grid_spec(const std::string& name, std::vector<std::vector<double>> sets) {
  SweepSpec spec;
  spec.name = name;
  spec.description = "sweep-journaled benchmark grid";
  spec.base.name = name + "/base";
  spec.base.widths = sets.front();
  spec.base.fa = 1;
  spec.widths_sets = std::move(sets);
  // Three sensors bound fa to 1; fa = 0 would only repeat the clean points
  // the policy axis already holds.
  spec.fa_values = {1};
  spec.steps = {1.0, 0.5};
  spec.schedules = {ScheduleKind::kAscending, ScheduleKind::kDescending};
  spec.policies = {PolicyKind::kNone, PolicyKind::kExpectation};
  spec.seed_count = 2;
  return spec;
}

Workload make_sweep_journaled(std::uint64_t seed, int seconds) {
  Workload w;
  w.name = "sweep-journaled";
  w.state_dir = true;
  // Serial, like the daemon's one busy worker: a run that keeps several
  // cores busy moves with every other tenant of a shared host.
  w.offline_threads = 1;
  const std::size_t total = static_cast<std::size_t>(6 * seconds);
  constexpr std::size_t kSets = 8;
  constexpr std::size_t kStored = 6;

  std::vector<std::size_t> originals;
  for (std::size_t k = 0; k < total; ++k) {
    Rng rng{mix(seed, 0x5a00 + k)};
    if (k % 10 == 9) {
      const std::size_t of = originals[static_cast<std::size_t>(
          rng.range(0, static_cast<int>(originals.size()) - 1))];
      Request request = w.requests[of];
      request.resubmit_of = of;
      w.requests.push_back(std::move(request));
      continue;
    }
    std::vector<std::vector<double>> sets;
    for (std::size_t i = 0; i < kSets; ++i) {
      sets.push_back(draw_widths(rng, 3, 2, 24, i < kStored ? 0 : 4000, 6000));
    }
    Request request = sweep_request(grid_spec("grid/k" + std::to_string(k), sets), k);
    originals.push_back(k);
    const std::vector<std::vector<double>> stored(sets.begin(), sets.begin() + kStored);
    for (const Scenario& point : request.sweep.expand()) {
      if (std::find(stored.begin(), stored.end(), point.widths) != stored.end()) {
        w.prebuilt.push_back(point);
      }
    }
    w.requests.push_back(std::move(request));
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, int seconds) {
  if (name == "heavy-lone") return make_heavy_lone(seed, seconds);
  if (name == "sweep-journaled") return make_sweep_journaled(seed, seconds);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void print_properties(const Workload& w) {
  std::size_t repeats = 0;
  std::size_t resubmits = 0;
  std::size_t grid_points = 0;
  std::map<std::string, std::size_t> lanes;
  std::vector<double> worlds;
  std::unordered_set<std::string> keys;
  for (const Request& request : w.requests) {
    if (request.resubmit_of != kNone) {
      ++resubmits;
      continue;
    }
    const std::vector<Scenario> units =
        request.is_sweep ? request.sweep.expand() : std::vector<Scenario>{request.scenario};
    grid_points += request.is_sweep ? units.size() : 0;
    for (const Scenario& unit : units) {
      ++lanes[lane_name(lane_of(unit))];
      worlds.push_back(static_cast<double>(arsf::scenario::estimated_worlds(unit)));
      if (!keys.insert(canonical_text(unit)).second) ++repeats;
    }
  }
  const double units = static_cast<double>(worlds.size());
  std::printf("input requests %zu on one connection (closed loop)\n", w.requests.size());
  std::printf("input exact_repeat_share %.4f (%zu of %zu %s)\n", repeats / units, repeats,
              worlds.size(), grid_points ? "grid points" : "requests");
  // Every workload sends over one connection, so no grid is shared with
  // another connection's.
  std::printf("input cross_connection_overlap 0 (one connection)\n");
  if (grid_points) {
    std::printf("input resubmitted_ids %zu (share %.4f)\n", resubmits,
                static_cast<double>(resubmits) / static_cast<double>(w.requests.size()));
    std::printf("input prebuilt_cache_points %zu\n", w.prebuilt.size());
  }
  for (const auto& [lane, count] : lanes) {
    std::printf("input lane_share %-10s %.4f (%zu)\n", lane.c_str(), count / units, count);
  }
  std::printf("input estimated_worlds quartiles %.0f %.0f %.0f\n", percentile(worlds, 25),
              percentile(worlds, 50), percentile(worlds, 75));
}

}  // namespace perfbench
