#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>

#include "gridsim/context.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

/// Metric-name spelling of each ledger category, in mcm::Cost order.
constexpr const char* kCategoryNames[] = {
    "SpMV", "Invert", "Prune", "Augment", "MaximalInit", "GatherScatter",
    "Other"};
constexpr int kCategories = static_cast<int>(mcm::Cost::kCount);
static_assert(sizeof(kCategoryNames) / sizeof(kCategoryNames[0])
              == static_cast<std::size_t>(kCategories));

/// Every per-layer metric, in the order BENCHMARK.json lists them. A traced
/// run emits all of them; a layer the workload does not exercise reads 0.
std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"gen.input_s", "s"},
      {"pipeline.permute_ms", "ms"},
      {"pipeline.distribute_ms", "ms"},
      {"pipeline.init_ms", "ms"},
      {"pipeline.mcm_ms", "ms"},
      {"pipeline.gather_ms", "ms"},
      {"stepper.supersteps", "count"},
      {"stepper.phases", "count"},
      {"stepper.augmentations", "count"},
      {"stepper.step_ms.p50", "ms"},
      {"stepper.step_ms.p90", "ms"},
  };
  for (const char* c : kCategoryNames) {
    m.emplace_back(std::string("dist.") + c + ".sim_ms", "ms");
  }
  for (const char* c : kCategoryNames) {
    m.emplace_back(std::string("dist.") + c + ".host_ms", "ms");
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"comm.messages", "count"},
      {"comm.words_raw", "count"},
      {"comm.words_sent", "count"},
      {"comm.wire_ratio", "fraction"},
      {"comm.SpMV.words_sent", "count"},
      {"host.lane_occupancy", "fraction"},
      {"service.latency_ms.p99", "ms"},
      {"service.queue_wait_ms.p50", "ms"},
      {"service.queue_wait_ms.p99", "ms"},
      {"service.exec_ms.p50", "ms"},
      {"service.exec_ms.p99", "ms"},
      {"service.supersteps_per_query", "count"},
      {"service.cache.hit_ratio", "fraction"},
      {"service.cache.stats_hit_ratio", "fraction"},
      {"service.cache.evictions", "count"},
      {"service.cache.invalidations", "count"},
      {"service.update_ms.p50", "ms"},
      {"service.submit_block_ms.p99", "ms"},
      {"service.lane_occupancy", "fraction"},
      {"service.stale_solves", "count"},
      {"service.stale_frac", "fraction"},
      {"dynamic.solve_frac", "fraction"},
      {"dynamic.augment_yield", "fraction"},
      {"dynamic.supersteps_per_update", "count"},
      {"dynamic.fast_path_frac", "fraction"},
      {"dynamic.solve_update_ms.p50", "ms"},
      {"dynamic.nosolve_update_ms.p50", "ms"},
      {"latency_ms.p90", "ms"},
      {"trace.untraced_p50_ms", "ms"},
      {"trace.traced_p50_ms", "ms"},
      {"trace.overhead_frac", "fraction"},
      {"trace.stage_sum_ms", "ms"},
      {"trace.largest_layer_share", "fraction"},
      {"failed_frac", "fraction"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0)
         / static_cast<double>(values.size());
}

std::size_t count_above(const std::vector<double>& values, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [threshold](double v) { return v > threshold; }));
}

const char* category_name(mcm::Cost category) {
  return kCategoryNames[static_cast<int>(category)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

int online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n < 1 ? 1 : static_cast<int>(n);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [key, entry] : metrics) {
    if (key == name) {
      entry = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Report::add_latency(const std::vector<double>& latency_ms) {
  const double p90 = percentile(latency_ms, 0.90);
  add("latency_ms.p50", percentile(latency_ms, 0.50), "ms");
  note("latency samples: " + std::to_string(latency_ms.size())
       + ", beyond p90: " + std::to_string(count_above(latency_ms, p90)));
}

void Report::add_ledger(const mcm::CostLedger& ledger, double ops) {
  const double per = ops > 0 ? 1.0 / ops : 0.0;
  for (int c = 0; c < kCategories; ++c) {
    add(std::string("dist.") + kCategoryNames[c] + ".sim_ms",
        ledger.time_us(static_cast<mcm::Cost>(c)) * 1e-3 * per, "ms");
  }
  const auto raw = static_cast<double>(ledger.total_wire_raw());
  const auto sent = static_cast<double>(ledger.total_wire_sent());
  add("comm.messages", static_cast<double>(ledger.total_messages()) * per,
      "count");
  add("comm.words_raw", raw * per, "count");
  add("comm.words_sent", sent * per, "count");
  add("comm.wire_ratio", raw > 0 ? sent / raw : 0.0, "fraction");
  add("comm.SpMV.words_sent",
      static_cast<double>(ledger.wire_sent(mcm::Cost::SpMV)) * per, "count");
}

void Report::add_host_breakdown(
    const std::vector<double>& host_us_by_category) {
  for (int c = 0; c < kCategories; ++c) {
    const auto i = static_cast<std::size_t>(c);
    add(std::string("dist.") + kCategoryNames[c] + ".host_ms",
        i < host_us_by_category.size() ? host_us_by_category[i] * 1e-3 : 0.0,
        "ms");
  }
}

void Report::fill_missing_layers() {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> ordered;
  for (const auto& [name, unit] : per_layer_metrics()) {
    double value = 0;
    for (const auto& [key, entry] : metrics) {
      if (key == name) value = entry.first;
    }
    ordered.push_back({name, {value, unit}});
  }
  metrics = std::move(ordered);
}

void Report::print() const {
  for (const std::string& line : notes) std::printf("# %s\n", line.c_str());
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + format_number(entry.first)
           + ", \"unit\": \"" + entry.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool print_knobs(
    const std::string& workload, int threads,
    const std::vector<std::pair<std::string, std::string>>& knobs) {
  const int cpus = online_cpus();
  std::string line = "knobs: workload=" + workload
                     + " nproc=" + std::to_string(cpus)
                     + " threads=" + std::to_string(threads) + " trace_mode="
                     + mcm::trace::mode_name(mcm::SimContext::trace_mode());
  for (const auto& [key, value] : knobs) line += " " + key + "=" + value;
  std::printf("# %s\n", line.c_str());
  if (threads > cpus) {
    std::fprintf(stderr,
                 "perfbench: workload %s needs %d threads but only %d CPUs "
                 "are online; refusing to run oversubscribed\n",
                 workload.c_str(), threads, cpus);
    return false;
  }
  return true;
}

int SpanLog::open(const char* name, std::uint64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("SpanLog: spans closed out of order");
  }
  stack_.pop_back();
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.end_us - s.start_us) * 1e-3);
  }
  return out;
}

std::vector<double> SpanLog::per_op_ms(const std::string& name) const {
  std::map<std::uint64_t, double> by_op;
  for (const Span& s : spans_) {
    if (name == s.name) by_op[s.op] += (s.end_us - s.start_us) * 1e-3;
  }
  std::vector<double> out;
  for (const auto& [op, ms] : by_op) out.push_back(ms);
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  mcm::JsonBuilder json;
  json.begin_object();
  json.begin_array("spans");
  for (const Span& s : spans_) {
    json.begin_object()
        .field("name", s.name)
        .field("start_us", s.start_us)
        .field("end_us", s.end_us)
        .field("parent", s.parent)
        .field("op", s.op)
        .end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path);
  out << json.str() << '\n';
  if (!out) throw std::runtime_error("SpanLog: cannot write " + path);
}

}  // namespace perfbench
