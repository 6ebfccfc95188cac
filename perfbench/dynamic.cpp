// dynamic-churn: DynamicMatching::apply, one update at a time, over a 50/50
// insert/delete make_churn stream on a fixed ER graph. Every update applies
// an edge delta to the distributed blocks (the DELTA primitive); about half
// touch a matched endpoint and trigger a re-solve seeded from the maintained
// matching, the rest take the no-solve paths. The maintained cardinality is
// checked against Hopcroft-Karp on the current graph outside the timing.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/dynamic.hpp"
#include "gen/er.hpp"
#include "gen/workload.hpp"
#include "harness.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matrix/csc.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace mcm;

constexpr int kHostThreads = 1;
/// The base graph is part of the workload definition; --seed draws the
/// churn stream. A re-solve's superstep count follows the graph instance
/// (4 to 13 per update across degree-4 ER seeds at n = 16384), so a seeded
/// graph would make the metrics track the draw rather than the program.
constexpr std::uint64_t kInputSeed = 1;
/// Edges per vertex. At 4 (and 6) a re-solve's cost switches between
/// regimes of about 2, 8 and 11 ms that persist for hundreds of updates, so
/// a run's median tracks which regime the stream is in; at 8 the alternating
/// BFS is shallow and its cost steady.
constexpr Index kDegree = 8;
/// The maintained cardinality is checked against a from-scratch solve every
/// kCheckEvery updates and at the end of the run.
constexpr std::size_t kCheckEvery = 250;

SimConfig dynamic_config() {
  SimConfig config;
  config.cores = 16;  // 4 x 4 grid
  config.threads_per_process = 1;
  config.host_threads = kHostThreads;
  config.backend = comm::Backend::Gridsim;
  config.wire = WireFormat::Auto;
  return config;
}

struct DeltaCounts {
  DynamicStats stats;
  CostLedger ledger;
};

}  // namespace

Report run_dynamic(const Args& args) {
  const Index n = args.small ? 1024 : 16384;
  // Exact counters cover this fixed prefix of the stream; every run applies
  // at least this many updates.
  const std::size_t prefix = args.small ? 100 : 2000;
  if (!print_knobs("dynamic-churn", kHostThreads,
                   {{"host_threads", std::to_string(kHostThreads)},
                    {"cores", "16"},
                    {"threads_per_process", "1"},
                    {"backend", "gridsim"},
                    {"wire", "auto"},
                    {"loop", "closed"},
                    {"outstanding", "1"},
                    {"n", std::to_string(n)},
                    {"edges", std::to_string(kDegree * n)},
                    {"input_seed", std::to_string(kInputSeed)},
                    {"insert_fraction", "0.5"},
                    {"exact_prefix", std::to_string(prefix)}})) {
    std::exit(3);
  }
  const SimConfig config = dynamic_config();
  // Enough stream for a run several times faster than the parent's.
  const auto stream_len = static_cast<int>(std::max<double>(
      static_cast<double>(prefix) + 1,
      args.seconds * (args.small ? 20000.0 : 1500.0)));

  std::unique_ptr<DynamicMatching> dm;
  std::vector<EdgeUpdate> stream;
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dm.reset();
    const auto start = Clock::now();
    Rng rng(kInputSeed);
    CooMatrix base = er_bipartite_m(n, n, kDegree * n, rng);
    ChurnConfig churn;
    churn.updates = stream_len;
    churn.insert_fraction = 0.5;
    churn.seed = args.seed;
    stream = make_churn(base, churn);
    gen_s.push_back(seconds_since(start));
    dm = std::make_unique<DynamicMatching>(config, std::move(base));
    dm->apply(stream[0]);  // warm-up: stream position 0
    setup_s.push_back(seconds_since(start));
  }

  Report report;
  std::size_t checks = 0;
  auto check = [&] {
    const CscMatrix csc = CscMatrix::from_coo(dm->graph());
    ++checks;
    if (hopcroft_karp(csc).cardinality() != dm->cardinality()) {
      ++report.failed;
      report.correct = false;
    }
  };

  std::vector<double> latency_ms;
  std::vector<double> solve_ms;
  std::vector<double> nosolve_ms;
  DeltaCounts at_start{dm->stats(), dm->ledger()};
  DeltaCounts at_prefix;
  SpanLog log;
  std::vector<double> host_us(static_cast<std::size_t>(Cost::kCount), 0.0);
  // Per traced update: host time inside the library's primitive spans (the
  // stage split of an update), and the rest of the apply call.
  std::vector<double> primitive_ms;
  std::vector<double> uncovered_ms;

  // One pass over the stream; the traced run splits its time between an
  // untraced pass and a traced one (spans around apply, the library tracer
  // on) that continues the stream.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  auto run_phase = [&](std::size_t& pos, std::size_t min_pos, bool traced,
                       std::vector<double>& lat) {
    const auto phase_start = Clock::now();
    if (traced) SimContext::set_trace_mode(TraceMode::On);
    while (pos < stream.size()
           && (seconds_since(phase_start) < phase_s || pos < min_pos)) {
      const std::uint64_t runs_before = dm->stats().solver_runs;
      double op_ms = 0;
      if (traced) {
        trace::tracer().clear();
        const int span = log.open("dynamic.apply", pos);
        dm->apply(stream[pos]);
        log.close(span);
        const auto& s = log.spans()[static_cast<std::size_t>(span)];
        op_ms = (s.end_us - s.start_us) * 1e-3;
        double primitives_us = 0;
        for (const trace::BreakdownRow& row : trace::tracer().breakdown()) {
          host_us[static_cast<std::size_t>(row.category)] += row.host_us;
          primitives_us += row.host_us;
        }
        primitive_ms.push_back(primitives_us * 1e-3);
        uncovered_ms.push_back(op_ms - primitives_us * 1e-3);
      } else {
        const auto start = Clock::now();
        dm->apply(stream[pos]);
        op_ms = seconds_since(start) * 1e3;
      }
      lat.push_back(op_ms);
      (dm->stats().solver_runs > runs_before ? solve_ms : nosolve_ms)
          .push_back(op_ms);
      ++report.attempted;
      ++pos;
      if (pos == prefix) at_prefix = DeltaCounts{dm->stats(), dm->ledger()};
      if (pos % kCheckEvery == 0) check();
    }
    if (traced) {
      SimContext::set_trace_mode(TraceMode::Off);
      trace::tracer().clear();
    }
  };

  std::size_t pos = 1;
  run_phase(pos, prefix, false, latency_ms);
  check();
  report.note("stream: " + std::to_string(pos - 1) + " updates applied, "
              + std::to_string(checks) + " from-scratch checks, final "
              + "cardinality " + std::to_string(dm->cardinality()));

  const double updates = static_cast<double>(prefix - 1);
  CostLedger delta = at_prefix.ledger;
  {
    // Ledger movement over the exact prefix (positions 1 .. prefix-1).
    for (int c = 0; c < static_cast<int>(Cost::kCount); ++c) {
      const auto k = static_cast<Cost>(c);
      delta.set_raw(k, at_prefix.ledger.time_us(k) - at_start.ledger.time_us(k),
                    at_prefix.ledger.messages(k) - at_start.ledger.messages(k),
                    at_prefix.ledger.words(k) - at_start.ledger.words(k),
                    at_prefix.ledger.wire_raw(k) - at_start.ledger.wire_raw(k),
                    at_prefix.ledger.wire_sent(k)
                        - at_start.ledger.wire_sent(k));
    }
  }
  const double sim_ms_per_op = delta.total_us() * 1e-3 / updates;

  if (!args.trace) {
    double busy_ms = 0;
    for (double ms : latency_ms) busy_ms += ms;
    report.add("setup_s", median(setup_s), "s");
    report.add("ops_per_s",
               static_cast<double>(latency_ms.size()) / (busy_ms * 1e-3),
               "1/s");
    report.add_latency(latency_ms);
    report.add("sim_ms_per_op", sim_ms_per_op, "ms");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  const double untraced_p50 = percentile(latency_ms, 0.50);
  std::vector<double> traced_ms;
  const std::size_t traced_from = pos;
  run_phase(pos, 0, true, traced_ms);
  check();
  const double traced_ops = static_cast<double>(pos - traced_from);
  for (double& us : host_us) us /= traced_ops > 0 ? traced_ops : 1.0;

  const DynamicStats& s0 = at_start.stats;
  const DynamicStats& s1 = at_prefix.stats;
  const auto runs = static_cast<double>(s1.solver_runs - s0.solver_runs);
  report.add("gen.input_s", median(gen_s), "s");
  report.add("stepper.supersteps",
             static_cast<double>(s1.solver_supersteps - s0.solver_supersteps)
                 / updates,
             "count");
  report.add("stepper.augmentations",
             static_cast<double>(s1.augmentations - s0.augmentations) / updates,
             "count");
  report.add_ledger(delta, updates);
  report.add_host_breakdown(host_us);
  report.add("host.lane_occupancy",
             dm->context().host().lane_stats().occupancy(), "fraction");
  report.add("dynamic.solve_frac", runs / updates, "fraction");
  report.add("dynamic.augment_yield",
             runs > 0 ? static_cast<double>(s1.augmentations - s0.augmentations)
                            / runs
                      : 0.0,
             "fraction");
  report.add("dynamic.supersteps_per_update",
             static_cast<double>(s1.solver_supersteps - s0.solver_supersteps)
                 / updates,
             "count");
  report.add("dynamic.fast_path_frac",
             static_cast<double>(s1.fast_path_matches - s0.fast_path_matches)
                 / updates,
             "fraction");
  report.add("dynamic.solve_update_ms.p50", percentile(solve_ms, 0.50), "ms");
  report.add("dynamic.nosolve_update_ms.p50", percentile(nosolve_ms, 0.50),
             "ms");

  const double traced_p50 = percentile(traced_ms, 0.50);
  double largest = 0;
  int largest_cat = 0;
  for (int c = 0; c < static_cast<int>(Cost::kCount); ++c) {
    const double ms = host_us[static_cast<std::size_t>(c)] * 1e-3;
    if (ms > largest) {
      largest = ms;
      largest_cat = c;
    }
  }
  const double traced_mean = mean(traced_ms);
  report.add("latency_ms.p90", percentile(latency_ms, 0.90), "ms");
  report.add("trace.untraced_p50_ms", untraced_p50, "ms");
  report.add("trace.traced_p50_ms", traced_p50, "ms");
  report.add("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0,
             "fraction");
  // The stages of an update are the library's primitives: their host time
  // summed per update, median over updates.
  const double stage_sum = median(primitive_ms);
  report.add("trace.stage_sum_ms", stage_sum, "ms");
  report.add("trace.largest_layer_share",
             traced_mean > 0 ? largest / traced_mean : 0.0, "fraction");
  report.note("largest layer: dist."
              + std::string(category_name(static_cast<Cost>(largest_cat)))
              + ".host_ms (" + std::to_string(largest) + " ms of "
              + std::to_string(traced_mean) + " ms mean traced update); "
              + "primitive stage sum p50 " + std::to_string(stage_sum)
              + " ms, outside every primitive p50 "
              + std::to_string(median(uncovered_ms)) + " ms, untraced p50 "
              + std::to_string(untraced_p50) + " ms");
  report.add("failed_frac",
             static_cast<double>(report.failed)
                 / static_cast<double>(report.attempted),
             "fraction");
  if (!args.spans_path.empty()) log.write_json(args.spans_path);
  return report;
}

}  // namespace perfbench
