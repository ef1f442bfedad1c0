#pragma once
// Shared helpers of the benchmark program: clock, order statistics and the
// one-line metric printer.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Thrown for a failed correctness or accounting check: the run reports
/// `correct: false` instead of a number.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Splices `"request_id":ID` in as the first field of a JSON object, the
/// way the daemon's protocol tags request lines and result frames.
inline std::string with_request_id(const std::string& json_object, const std::string& id) {
  std::string out = "{\"request_id\":\"";
  out += id;
  out += "\",";
  out.append(json_object, 1);
  return out;
}

/// Bytes in the regular files under @p dir.
inline std::uint64_t bytes_under(const std::filesystem::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Median of @p values (0 for an empty sample).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The tail of a latency sample as the guide defines it: the highest
/// percentile that still has at least ten samples beyond it, i.e. the 11th
/// largest value, at percentile 100 * (n - 10) / n.  With ten samples or
/// fewer there is no such percentile and the maximum is reported at 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};

inline Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) {
    tail.value = values.back();
    return tail;
  }
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Named metrics of one run, printed as `metric NAME VALUE UNIT` lines and
/// as the final JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  void print_lines(const char* prefix) const {
    for (const auto& [name, entry] : values_) {
      std::printf("%s %-32s %.9g %s\n", prefix, name.c_str(), entry.first, entry.second.c_str());
    }
  }

  /// `"name": {"value": v, "unit": "u"}` pairs for @p names, in that order.
  [[nodiscard]] std::string json(const std::vector<std::string>& names) const {
    std::string out = "{";
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto& [value, unit] = values_.at(names[i]);
      char number[64];
      std::snprintf(number, sizeof(number), "%.17g", value);
      out += (i ? ", \"" : "\"") + names[i] + "\": {\"value\": " + number + ", \"unit\": \"" +
             unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench
