#pragma once
/// \file harness.hpp
/// Shared plumbing of the repository benchmark: arguments, percentiles, the
/// in-memory span log of the traced run, and the report whose last line is
/// the JSON result perfbench/run.py relays.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gridsim/cost_ledger.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Reduced input sizes, for the benchmark's own tests.
  bool small = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_path;
};

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Number of samples strictly above `threshold`.
[[nodiscard]] std::size_t count_above(const std::vector<double>& values,
                                      double threshold);

/// Metric-name spelling of a ledger category (dist.<name>.sim_ms).
[[nodiscard]] const char* category_name(mcm::Cost category);

[[nodiscard]] double peak_rss_mb();
[[nodiscard]] int online_cpus();

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// One workload run's outcome: the counts of the result line, the metrics
/// of the selected mode, and '#' note lines printed before the result.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when some output is wrong for every input it could have been
  /// computed from. Operations that miss their contract in another way (an
  /// error, a refusal, a result for a superseded graph) count in `failed`.
  bool correct = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
  /// latency_ms.p50 plus a note with the sample count and how many samples
  /// lie beyond p90.
  void add_latency(const std::vector<double>& latency_ms);
  /// dist.<category>.sim_ms and the comm.* wire counters of one ledger,
  /// divided by `ops`.
  void add_ledger(const mcm::CostLedger& ledger, double ops);
  /// dist.<category>.host_ms from per-op host microseconds by category.
  void add_host_breakdown(const std::vector<double>& host_us_by_category);
  /// Sets every listed per-layer metric this run did not measure to 0, so
  /// each traced run emits the same metric set.
  void fill_missing_layers();
  /// Prints notes, then the JSON result as the last line of stdout.
  void print() const;
};

/// The knobs a workload pins, printed with the host's CPU count and the
/// trace mode (off; a traced phase turns it on only for itself). Returns
/// false (after printing why) when `threads` exceeds the online CPUs.
bool print_knobs(
    const std::string& workload, int threads,
    const std::vector<std::pair<std::string, std::string>>& knobs);

/// In-memory spans of the traced run: name, start, end, parent and op id,
/// kept until the run ends and then written as JSON.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  SpanLog() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(const char* name, std::uint64_t op);
  void close(int index);

  /// Runs `fn` inside a span named `name` and returns its result.
  template <typename Fn>
  decltype(auto) timed(const char* name, std::uint64_t op, Fn&& fn) {
    struct Closer {
      SpanLog* log;
      int index;
      ~Closer() { log->close(index); }
    } closer{this, open(name, op)};
    return fn();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Inclusive durations (ms) of every span named `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Per op, the summed inclusive duration (ms) of spans named `name`.
  [[nodiscard]] std::vector<double> per_op_ms(const std::string& name) const;
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  Clock::time_point epoch_;
};

/// Workload entry points (batch.cpp, service.cpp, dynamic.cpp).
[[nodiscard]] Report run_batch(const Args& args, bool road);
/// `writes`: service-mixed (updates and solves-by-handle beside the pool
/// solves) rather than service-read.
[[nodiscard]] Report run_service(const Args& args, bool writes);
[[nodiscard]] Report run_dynamic(const Args& args);

}  // namespace perfbench
