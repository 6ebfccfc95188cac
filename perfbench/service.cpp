// service-read and service-mixed: one client thread drives a QueryEngine
// (2 workers x 1 lane, FIFO) as a closed loop with kWindow queries
// outstanding. The seeded stream of service-read holds
//   * solves of `mixed` pool graphs. The traffic shape is the one
//     make_workload characterizes (WorkloadConfig): a hot_fraction share of
//     the queries goes to the hot third of the pool and repeats a cache key
//     there; the rest draw a pool graph uniformly. Unlike make_workload,
//     whose queries on one graph all share a key, each of those asks with a
//     fresh key (a new permutation seed), so the pool stays a mix of hits
//     and multi-millisecond misses over thousands of queries. A repeat is
//     placed more than 2 * kWindow positions after its key's last use, so
//     the earlier query has completed and hit/miss depends on the stream
//     alone;
// service-mixed adds writes beside these reads:
//   * UpdateQuery batches of kBatch edges on one registered graph, each
//     followed at once by a solve-by-handle of that graph (the interleaving
//     of mcm_service --updates).
// They are the only workloads through admission, slices, scheduling and the
// result cache; service-mixed also goes through the graph registry. A known
// race in the engine (a worker can run a solve-by-handle against a graph
// version other than the one its admission order promises) makes a varying
// share of service-mixed's handle solves fail, so only service-read, whose
// operations all succeed, is a workload of BENCHMARK.json; service-mixed is
// run on demand to show the race.
//
// Every outcome is checked after the client loop. An executed pool solve
// must be a valid matching of its graph with the Hopcroft-Karp cardinality;
// a cache hit must return exactly its key's executed result. A
// solve-by-handle must equal a standalone run_pipeline of the graph version
// its admission prefix defines (matching, cardinality and ledger); one equal
// to another version instead is a stale solve and counts as failed.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "gen/er.hpp"
#include "gen/workload.hpp"
#include "harness.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/verify.hpp"
#include "matrix/csc.hpp"
#include "matrix/delta.hpp"
#include "service/query_engine.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace mcm;

constexpr int kWorkers = 2;
constexpr int kLanes = 1;
constexpr int kQuantum = 8;
constexpr std::size_t kWindow = 8;
constexpr std::size_t kCacheCapacity = 1024;
/// A key is repeated only within kMaxGap slots of its last use. At most
/// kMaxGap + kWindow distinct entries are touched in between, fewer than
/// kCacheCapacity, so the LRU never evicts it: hit or miss is fixed by the
/// stream.
constexpr std::size_t kMaxGap = kCacheCapacity / 2;
constexpr int kPool = 48;
/// Edge updates per UpdateQuery, as mcm_service --updates batches them.
constexpr std::size_t kBatch = 4;
/// Per stream slot of service-mixed, the chance of an update batch plus a
/// solve-by-handle. An assumption: the repository has no measured
/// read/write mix.
constexpr double kUpdateProb = 0.05;
constexpr std::uint64_t kHandlePermuteSeed = 7;
constexpr double kRateWindowS = 1.0;
/// The pool is part of the workload definition, as in the batch workloads;
/// --seed draws the query stream. A seeded pool made host time and memory
/// track the draw of graph sizes.
constexpr std::uint64_t kPoolSeed = 1;

SimConfig query_config() {
  SimConfig config;
  config.cores = 16;  // 4 x 4 grid per query
  config.threads_per_process = 1;
  config.host_threads = 1;
  config.backend = comm::Backend::Gridsim;
  config.wire = WireFormat::Auto;
  return config;
}

enum class Kind { Pool, Update, Handle };

struct Slot {
  Kind kind = Kind::Pool;
  int graph = 0;                   ///< Pool: index into the pool
  std::uint64_t permute_seed = 0;  ///< Pool: the cache key's option part
  std::size_t version = 0;         ///< Update: batch index; Handle: version
};

/// The seeded query stream; the draws depend on the seed and the traffic
/// shape alone. `hot` is the size of the hot set (the first graphs of the
/// pool, as make_workload picks it), `hot_fraction` the share of queries
/// sent there and `update_prob` the chance of an update slot.
std::vector<Slot> make_stream(std::uint64_t seed, std::size_t length,
                              int hot, double hot_fraction,
                              double update_prob) {
  Rng rng(seed ^ 0x5e41ce5eedULL);
  std::vector<Slot> stream;
  // Per hot graph, its keys (permutation seeds) with their last use.
  std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> hot_keys(
      static_cast<std::size_t>(hot));
  std::uint64_t next_seed = 1000;
  std::size_t batches = 0;
  while (stream.size() < length) {
    const std::size_t pos = stream.size();
    if (update_prob > 0 && rng.next_bool(update_prob)) {
      stream.push_back(Slot{Kind::Update, 0, 0, batches});
      ++batches;
      stream.push_back(Slot{Kind::Handle, 0, 0, batches});
      continue;
    }
    const bool pick_hot = rng.next_bool(hot_fraction);
    const auto graph = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(pick_hot ? hot : kPool)));
    if (pick_hot) {
      // Repeat the graph's most recent key that is old enough to have
      // completed and young enough to be cached; without one, a fresh key.
      auto& keys = hot_keys[static_cast<std::size_t>(graph)];
      for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
        if (it->second + 2 * kWindow < pos && pos <= it->second + kMaxGap) {
          stream.push_back(Slot{Kind::Pool, graph, it->first, 0});
          it->second = pos;
          break;
        }
      }
      if (stream.size() > pos) continue;
    }
    const Slot fresh{Kind::Pool, graph, next_seed++, 0};
    if (graph < hot) {
      hot_keys[static_cast<std::size_t>(graph)].emplace_back(fresh.permute_seed,
                                                             pos);
    }
    stream.push_back(fresh);
  }
  stream.resize(length);
  return stream;
}

/// Order-sensitive hash of both mate arrays.
std::uint64_t mates_hash(const Matching& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](Index v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  };
  for (Index v : m.mate_r) mix(v);
  mix(-2);  // separates the two arrays
  for (Index v : m.mate_c) mix(v);
  return h;
}

struct Signature {
  Index cardinality = 0;
  double sim_us = 0;
  std::uint64_t words_sent = 0;
  std::uint64_t mates = 0;
  friend bool operator==(const Signature&, const Signature&) = default;
};

Signature signature(const PipelineResult& r) {
  return Signature{r.matching.cardinality(), r.ledger.total_us(),
                   r.ledger.total_wire_sent(), mates_hash(r.matching)};
}

struct Record {
  Kind kind = Kind::Pool;
  std::size_t version = 0;
  bool ok = true;
  bool cache_hit = false;
  double latency_ms = 0;
  double queue_wait_ms = 0;
  double exec_ms = 0;
  double submit_block_ms = 0;
  double done_s = 0;  ///< when the client saw it complete, from loop start
  std::uint64_t supersteps = 0;
  Signature sig;
  /// An executed pool solve's row mates, kept for the check after the loop
  /// (32-bit to halve what a run holds; the pool graphs are small).
  std::vector<std::int32_t> mate_r;
};

struct Setup {
  std::vector<std::shared_ptr<const CooMatrix>> pool;
  std::vector<std::uint64_t> pool_fp;
  CooMatrix handle_base;
  std::vector<std::vector<EdgeUpdate>> batches;
  std::vector<Slot> stream;
};

Setup make_inputs(std::uint64_t seed, bool small, std::size_t length,
                  bool writes) {
  Setup s;
  WorkloadConfig wc;
  wc.mix = SizeMix::Mixed;
  wc.queries = 0;
  wc.seed = kPoolSeed;
  wc.graph_pool = kPool;
  wc.scale = small ? 3.0 : 10.0;
  s.pool = make_workload(wc).pool;
  for (const auto& g : s.pool) s.pool_fp.push_back(fingerprint_matrix(*g));
  s.stream = make_stream(seed, length, std::max(1, kPool / 3),
                         wc.hot_fraction, writes ? kUpdateProb : 0.0);
  if (!writes) return s;
  // The registered graph has the shape of the pool's ER graphs (n = 40 x
  // scale, 4n edges) but is not one of them, so invalidating its versions
  // never touches a pool key.
  Rng rng(seed + 1);
  const Index n = small ? 120 : 400;
  s.handle_base = er_bipartite_m(n, n, 4 * n, rng);
  std::size_t updates = 0;
  for (const Slot& slot : s.stream) updates += slot.kind == Kind::Update;
  ChurnConfig churn;
  churn.updates = static_cast<int>(std::max<std::size_t>(1, updates) * kBatch);
  churn.seed = seed + 2;
  const std::vector<EdgeUpdate> all = make_churn(s.handle_base, churn);
  for (std::size_t b = 0; b * kBatch < all.size(); ++b) {
    const auto first = static_cast<std::ptrdiff_t>(b * kBatch);
    const auto last =
        static_cast<std::ptrdiff_t>(std::min(all.size(), (b + 1) * kBatch));
    s.batches.emplace_back(all.begin() + first, all.begin() + last);
  }
  return s;
}

ServiceConfig service_config() {
  ServiceConfig config;
  config.policy = SchedPolicy::Fifo;
  config.workers = kWorkers;
  config.lanes_per_worker = kLanes;
  config.max_pending = 64;
  config.cache_capacity = kCacheCapacity;
  config.quantum = kQuantum;
  return config;
}

QuerySpec make_spec(const Setup& s, const Slot& slot, std::uint64_t handle) {
  QuerySpec spec;
  spec.sim = query_config();
  if (slot.kind == Kind::Pool) {
    spec.graph = s.pool[static_cast<std::size_t>(slot.graph)];
    spec.matrix_fingerprint = s.pool_fp[static_cast<std::size_t>(slot.graph)];
    spec.pipeline.permute_seed = slot.permute_seed;
  } else {
    spec.graph_handle = handle;
    spec.pipeline.permute_seed = kHandlePermuteSeed;
    if (slot.kind == Kind::Update) {
      spec.updates = std::make_shared<const std::vector<EdgeUpdate>>(
          s.batches[slot.version]);
    }
  }
  return spec;
}

/// A constructed engine (with the registered graph when there are writes),
/// after one warm-up solve of a key the stream never uses.
struct Service {
  std::unique_ptr<QueryEngine> engine;
  std::uint64_t handle = 0;
};

Service start_service(const Setup& s) {
  Service svc;
  svc.engine = std::make_unique<QueryEngine>(service_config());
  if (!s.batches.empty()) {
    svc.handle = svc.engine->register_graph(s.handle_base);
  }
  const Slot warm{Kind::Pool, 0, 1, 0};
  (void)svc.engine->wait(svc.engine->submit(make_spec(s, warm, svc.handle)));
  return svc;
}

struct PoolOracle {
  std::vector<CscMatrix> csc;
  std::vector<Index> maximum;
};

/// What one pass of the client loop saw. The prefix aggregates cover the
/// pool solves among the first `prefix` stream slots, whose hit/miss and
/// ledgers are fixed by the seed.
struct Phase {
  std::vector<Record> records;
  double elapsed_s = 0;
  std::uint64_t wrong = 0;  // pool solves with a wrong result
  CacheStats cache;
  double occupancy = 0;
  CostLedger prefix_ledger;
  double prefix_executed = 0;
  double prefix_pool = 0;
  double prefix_pool_hits = 0;
  McmDistStats prefix_mcm;
  std::uint64_t prefix_supersteps = 0;
};

/// The closed loop: keep kWindow queries outstanding, wait for the oldest,
/// submit the next, until `seconds` have passed and the prefix is done.
/// With a span log, spans wrap each submit and wait.
Phase client_loop(Service& svc, const Setup& s, double seconds,
                  std::size_t prefix, SpanLog* log) {
  Phase ph;
  ph.records.reserve(s.stream.size());
  std::size_t next = 0;
  std::deque<std::pair<std::uint64_t, std::size_t>> outstanding;
  const auto submit_next = [&] {
    const Slot& slot = s.stream[next];
    QuerySpec spec = make_spec(s, slot, svc.handle);
    const auto start = Clock::now();
    const std::uint64_t id =
        log != nullptr
            ? log->timed("service.submit", next,
                         [&] { return svc.engine->submit(std::move(spec)); })
            : svc.engine->submit(std::move(spec));
    Record r;
    r.kind = slot.kind;
    r.version = slot.version;
    r.submit_block_ms = seconds_since(start) * 1e3;
    ph.records.push_back(r);
    outstanding.emplace_back(id, next);
    ++next;
  };
  const auto loop_start = Clock::now();
  while (outstanding.size() < kWindow) submit_next();
  while (!outstanding.empty()) {
    const auto [id, pos] = outstanding.front();
    outstanding.pop_front();
    const QueryOutcome outcome =
        log != nullptr
            ? log->timed("service.wait", pos,
                         [&, id = id] { return svc.engine->wait(id); })
            : svc.engine->wait(id);
    if (next < s.stream.size()
        && (seconds_since(loop_start) < seconds || next < prefix)) {
      submit_next();
    }
    Record& r = ph.records[pos];
    r.ok = outcome.ok();
    r.done_s = seconds_since(loop_start);
    r.cache_hit = outcome.cache_hit;
    r.latency_ms = outcome.latency_s * 1e3;
    r.queue_wait_ms = outcome.queue_wait_s * 1e3;
    r.exec_ms = outcome.service_s * 1e3;
    r.supersteps = outcome.supersteps;
    if (r.kind == Kind::Update) continue;
    r.sig = signature(outcome.result);
    if (r.kind == Kind::Handle || !r.ok) continue;
    if (!r.cache_hit) {
      const std::vector<Index>& mates = outcome.result.matching.mate_r;
      r.mate_r.assign(mates.begin(), mates.end());
    }
    if (pos < prefix) {
      ++ph.prefix_pool;
      if (r.cache_hit) {
        ++ph.prefix_pool_hits;
      } else {
        ++ph.prefix_executed;
        ph.prefix_ledger.merge(outcome.result.ledger);
        ph.prefix_mcm.phases += outcome.result.mcm_stats.phases;
        ph.prefix_mcm.augmentations += outcome.result.mcm_stats.augmentations;
        ph.prefix_supersteps += outcome.supersteps;
      }
    }
  }
  ph.elapsed_s = seconds_since(loop_start);
  ph.cache = svc.engine->cache_stats();
  ph.occupancy = svc.engine->lane_stats().occupancy();
  return ph;
}

/// Checks a pass's pool solves after its loop. An executed solve's matching,
/// rebuilt from its row mates, must be valid for its graph, have the
/// Hopcroft-Karp cardinality and hash like the returned one (so the returned
/// column mates were the inverse). A cache hit must carry the signature of
/// its key's executed result.
void check_pool(Phase& ph, const Setup& s, const PoolOracle& oracle) {
  std::map<std::pair<int, std::uint64_t>, Signature> executed;
  for (std::size_t pos = 0; pos < ph.records.size(); ++pos) {
    Record& r = ph.records[pos];
    if (r.kind != Kind::Pool || !r.ok) continue;
    const Slot& slot = s.stream[pos];
    const std::pair<int, std::uint64_t> key{slot.graph, slot.permute_seed};
    bool right = false;
    if (r.cache_hit) {
      const auto it = executed.find(key);
      right = it != executed.end() && it->second == r.sig;
    } else {
      const auto g = static_cast<std::size_t>(slot.graph);
      const CscMatrix& csc = oracle.csc[g];
      Matching m(csc.n_rows(), csc.n_cols());
      right = static_cast<Index>(r.mate_r.size()) == csc.n_rows();
      for (std::size_t i = 0; right && i < r.mate_r.size(); ++i) {
        const Index j = r.mate_r[i];
        if (j == kNull) continue;
        right = j >= 0 && j < csc.n_cols()
                && m.mate_c[static_cast<std::size_t>(j)] == kNull;
        if (right) m.match(static_cast<Index>(i), j);
      }
      right = right && verify_valid(csc, m)
              && m.cardinality() == oracle.maximum[g]
              && r.sig.cardinality == oracle.maximum[g]
              && mates_hash(m) == r.sig.mates;
      executed.emplace(key, r.sig);
      r.mate_r = {};
    }
    if (!right) {
      r.ok = false;
      ++ph.wrong;
    }
  }
}

/// Reference results for the registered graph. The contract promises a
/// solve-by-handle the version its admission prefix defines: version v is
/// the base graph after update batches 0 .. v-1, solved standalone (the
/// service's equivalence contract makes that bit-identical). The registry
/// race lets a solve see another version, and lets two update batches
/// apply in the wrong order, so the graph can also pass through a state
/// with batch k+1 applied before batch k; when the two batches touch the
/// same edge, every later state differs from the versions too. A result
/// that matches none of these states is wrong for every graph the registry
/// could have held.
class HandleOracle {
 public:
  enum class Seen { Admitted, Older, Newer, Reordered, Nothing };

  HandleOracle(const Setup& s, std::size_t max_version) : s_(s) {
    opts_.permute_seed = kHandlePermuteSeed;
    const std::size_t last = std::min(max_version + 2, s.batches.size());
    versions_.push_back(s.handle_base);
    for (std::size_t v = 1; v <= last; ++v) {
      versions_.push_back(apply_edge_updates(versions_.back(), s.batches[v - 1]));
    }
    for (std::size_t v = 0; v <= max_version; ++v) {
      version_sig_.push_back(solve(versions_[v]));
    }
    // Swaps whose two batches do not commute: the chain diverges there.
    for (std::size_t k = 0; k + 2 < versions_.size(); ++k) {
      const CooMatrix swapped = apply_edge_updates(
          apply_edge_updates(versions_[k], s.batches[k + 1]), s.batches[k]);
      if (!(swapped.rows == versions_[k + 2].rows
            && swapped.cols == versions_[k + 2].cols)) {
        diverging_.push_back(k);
      }
    }
  }

  /// What a solve-by-handle admitted at `version` returned.
  Seen classify(std::size_t version, const Signature& sig) {
    if (sig == version_sig_[version]) return Seen::Admitted;
    const auto other = std::find(version_sig_.begin(), version_sig_.end(), sig);
    if (other != version_sig_.end()) {
      return other - version_sig_.begin() > static_cast<std::ptrdiff_t>(version)
                 ? Seen::Newer
                 : Seen::Older;
    }
    // Batch k+1 applied before batch k, for a swap near the admission point.
    const std::size_t from = version >= 3 ? version - 3 : 0;
    for (std::size_t k = from; k <= version + 1 && k + 2 < versions_.size();
         ++k) {
      if (sig == state_sig(k, k + 1)) return Seen::Reordered;
    }
    // After a non-commuting swap at k, states k+2 onwards follow a chain of
    // their own.
    for (std::size_t k : diverging_) {
      if (k + 2 > version + 2) break;
      for (std::size_t v = std::max(k + 2, version >= 2 ? version - 2 : 0);
           v <= version + 2 && v < versions_.size(); ++v) {
        if (sig == state_sig(k, v)) return Seen::Reordered;
      }
    }
    return Seen::Nothing;
  }

  /// run_pipeline results that were not of maximum cardinality.
  std::size_t short_states = 0;

 private:
  Signature solve(const CooMatrix& graph) {
    const PipelineResult ref = run_pipeline(query_config(), graph, opts_);
    short_states += ref.matching.cardinality()
                    != hopcroft_karp(CscMatrix::from_coo(graph)).cardinality();
    return signature(ref);
  }

  /// The state reached with batch k+1 applied before batch k: `upto` = k+1
  /// is the state between the two, `upto` >= k+2 the state after batches
  /// 0 .. upto-1 in that order.
  Signature state_sig(std::size_t k, std::size_t upto) {
    const auto key = std::make_pair(k, upto);
    if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
    CooMatrix g = apply_edge_updates(versions_[k], s_.batches[k + 1]);
    if (upto >= k + 2) g = apply_edge_updates(g, s_.batches[k]);
    for (std::size_t b = k + 2; b < upto; ++b) {
      g = apply_edge_updates(g, s_.batches[b]);
    }
    return memo_.emplace(key, solve(g)).first->second;
  }

  const Setup& s_;
  PipelineOptions opts_;
  std::vector<CooMatrix> versions_;
  std::vector<Signature> version_sig_;
  std::vector<std::size_t> diverging_;
  std::map<std::pair<std::size_t, std::size_t>, Signature> memo_;
};

}  // namespace

Report run_service(const Args& args, bool writes) {
  const std::string name = writes ? "service-mixed" : "service-read";
  const int threads = kWorkers * kLanes + 1;  // + the client thread
  const std::size_t prefix = args.small ? 300 : 3000;
  if (!print_knobs(name, threads,
                   {{"workers", std::to_string(kWorkers)},
                    {"lanes_per_worker", std::to_string(kLanes)},
                    {"quantum", std::to_string(kQuantum)},
                    {"policy", "fifo"},
                    {"cache_capacity", std::to_string(kCacheCapacity)},
                    {"outstanding", std::to_string(kWindow)},
                    {"loop", "closed"},
                    {"host_threads", "1"},
                    {"cores", "16"},
                    {"threads_per_process", "1"},
                    {"backend", "gridsim"},
                    {"wire", "auto"},
                    {"pool", std::to_string(kPool) + "-mixed@"
                                 + (args.small ? "3" : "10")},
                    {"update_slots", writes ? std::to_string(kUpdateProb)
                                            : std::string("0")},
                    {"exact_prefix", std::to_string(prefix)}})) {
    std::exit(3);
  }
  // Enough stream for a run several times faster than the parent's.
  const auto length = static_cast<std::size_t>(
      std::max<double>(static_cast<double>(prefix), args.seconds * 3000.0));

  // Set-up: inputs, engine, registry and warm-up solve, repeated; the
  // median is setup_s.
  Setup s;
  Service svc;
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.engine.reset();
    const auto start = Clock::now();
    s = make_inputs(args.seed, args.small, length, writes);
    gen_s.push_back(seconds_since(start));
    svc = start_service(s);
    setup_s.push_back(seconds_since(start));
  }

  // Oracle for the pool, outside set-up and timing.
  PoolOracle oracle;
  for (const auto& g : s.pool) {
    oracle.csc.push_back(CscMatrix::from_coo(*g));
    oracle.maximum.push_back(hopcroft_karp(oracle.csc.back()).cardinality());
  }

  // The traced run splits its time between an untraced and a traced pass.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Phase> phases;
  phases.push_back(client_loop(svc, s, phase_s, prefix, nullptr));
  svc.engine.reset();
  const double rss_mb = peak_rss_mb();
  check_pool(phases.back(), s, oracle);
  SpanLog log;
  if (args.trace) {
    // The traced pass replays the stream on a fresh engine, with spans
    // around each submit and wait.
    svc = start_service(s);
    phases.push_back(client_loop(svc, s, phase_s, prefix, &log));
    svc.engine.reset();
    check_pool(phases.back(), s, oracle);
  }

  Report report;
  // Oracle for the registered graph: every admitted-prefix version solved
  // standalone (the service's equivalence contract makes it bit-identical).
  std::size_t max_version = 0;
  for (const Phase& ph : phases) {
    if (ph.wrong > 0) {
      report.correct = false;
      report.note(std::to_string(ph.wrong) + " pool solves returned an "
                  "invalid, non-maximum or inconsistent result");
    }
    for (const Record& r : ph.records) {
      // An update's batch index b produces version b + 1.
      if (r.kind != Kind::Pool) {
        max_version = std::max(
            max_version, r.version + (r.kind == Kind::Update ? 1 : 0));
      }
    }
  }
  std::optional<HandleOracle> handle_oracle;
  if (writes) handle_oracle.emplace(s, max_version);
  if (handle_oracle && handle_oracle->short_states > 0) {
    report.correct = false;
    report.note("oracle: run_pipeline is not maximum on "
                + std::to_string(handle_oracle->short_states)
                + " states of the registered graph");
  }
  std::vector<std::uint64_t> stale(phases.size(), 0);
  std::vector<std::uint64_t> stale_newer(phases.size(), 0);
  std::vector<std::uint64_t> reordered(phases.size(), 0);
  std::vector<std::uint64_t> handle_solves(phases.size(), 0);
  std::uint64_t unknown = 0;  // handle results matching no possible state
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (Record& r : phases[p].records) {
      if (r.kind != Kind::Handle || !r.ok) continue;
      ++handle_solves[p];
      switch (handle_oracle->classify(r.version, r.sig)) {
        case HandleOracle::Seen::Admitted:
          continue;
        case HandleOracle::Seen::Newer:
          ++stale_newer[p];
          [[fallthrough]];
        case HandleOracle::Seen::Older:
          ++stale[p];
          break;
        case HandleOracle::Seen::Reordered:
          ++stale[p];
          ++reordered[p];
          break;
        case HandleOracle::Seen::Nothing:
          ++unknown;
          break;
      }
      r.ok = false;
    }
    for (const Record& r : phases[p].records) {
      ++report.attempted;
      if (!r.ok) ++report.failed;
    }
  }

  if (unknown > 0) {
    report.correct = false;
    report.note(std::to_string(unknown) + " solve-by-handle results match no "
                "state the registered graph could have had");
  }

  struct Samples {
    std::vector<double> latency, queue, exec, update, block;
  };
  auto samples = [](const Phase& ph) {
    Samples out;
    for (const Record& r : ph.records) {
      out.latency.push_back(r.latency_ms);
      out.queue.push_back(r.queue_wait_ms);
      out.exec.push_back(r.exec_ms);
      out.block.push_back(r.submit_block_ms);
      if (r.kind == Kind::Update) out.update.push_back(r.latency_ms);
    }
    return out;
  };
  const Phase& first = phases.front();
  const Samples untraced = samples(first);
  if (writes) {
    report.note("queries: " + std::to_string(first.records.size()) + " ("
                + std::to_string(untraced.update.size()) + " updates, "
                + std::to_string(handle_solves[0]) + " solve-by-handle); "
                + "solve-by-handle results for another graph state than "
                + "their admission order gives: " + std::to_string(stale[0])
                + " (" + std::to_string(stale_newer[0]) + " a newer version, "
                + std::to_string(reordered[0]) + " a state with two update "
                + "batches applied out of order); known defect: worker_main "
                + "picks a query and run_slice snapshots or updates the "
                + "registry later, so queries on the two workers interleave");
  } else {
    report.note("queries: " + std::to_string(first.records.size())
                + " pool solves, no writes");
  }

  if (!args.trace) {
    // Rate and latency p50 per kRateWindowS window of completions, each
    // reported as its median over the windows: a stall of the shared host
    // then moves one window rather than the run's figure.
    std::vector<std::vector<double>> windows;
    for (const Record& r : first.records) {
      const auto w = static_cast<std::size_t>(r.done_s / kRateWindowS);
      if (windows.size() <= w) windows.resize(w + 1);
      windows[w].push_back(r.latency_ms);
    }
    if (windows.size() > 1) windows.pop_back();  // the partial last window
    std::vector<double> rate, p50;
    for (const std::vector<double>& w : windows) {
      rate.push_back(static_cast<double>(w.size()) / kRateWindowS);
      p50.push_back(percentile(w, 0.50));
    }
    report.add("setup_s", median(setup_s), "s");
    report.add("ops_per_s", median(rate), "1/s");
    report.add("latency_ms.p50", median(p50), "ms");
    report.note("latency samples: " + std::to_string(untraced.latency.size())
                + " in " + std::to_string(windows.size()) + " windows of "
                + std::to_string(kRateWindowS) + " s");
    report.add("sim_ms_per_op",
               first.prefix_ledger.total_us() * 1e-3 / first.prefix_executed,
               "ms");
    report.add("peak_rss_mb", rss_mb, "MB");
    return report;
  }

  const Phase& ph = phases.back();
  const Samples traced = samples(ph);
  const double executed = ph.prefix_executed;
  report.add("gen.input_s", median(gen_s), "s");
  report.add("stepper.supersteps",
             static_cast<double>(ph.prefix_supersteps) / executed, "count");
  report.add("stepper.phases",
             static_cast<double>(ph.prefix_mcm.phases) / executed, "count");
  report.add("stepper.augmentations",
             static_cast<double>(ph.prefix_mcm.augmentations) / executed,
             "count");
  report.add_ledger(ph.prefix_ledger, executed);
  report.add("host.lane_occupancy", ph.occupancy, "fraction");
  report.add("service.latency_ms.p99", percentile(traced.latency, 0.99), "ms");
  report.add("service.queue_wait_ms.p50", percentile(traced.queue, 0.50), "ms");
  report.add("service.queue_wait_ms.p99", percentile(traced.queue, 0.99), "ms");
  report.add("service.exec_ms.p50", percentile(traced.exec, 0.50), "ms");
  report.add("service.exec_ms.p99", percentile(traced.exec, 0.99), "ms");
  report.add("service.supersteps_per_query",
             static_cast<double>(ph.prefix_supersteps) / executed, "count");
  report.add("service.cache.hit_ratio", ph.prefix_pool_hits / ph.prefix_pool,
             "fraction");
  report.add("service.cache.stats_hit_ratio",
             static_cast<double>(ph.cache.hits)
                 / static_cast<double>(ph.cache.hits + ph.cache.misses),
             "fraction");
  report.add("service.cache.evictions",
             static_cast<double>(ph.cache.evictions), "count");
  report.add("service.cache.invalidations",
             static_cast<double>(ph.cache.invalidations), "count");
  report.add("service.update_ms.p50", percentile(traced.update, 0.50), "ms");
  report.add("service.submit_block_ms.p99", percentile(traced.block, 0.99),
             "ms");
  report.add("service.lane_occupancy", ph.occupancy, "fraction");
  report.add("service.stale_solves", static_cast<double>(stale.back()),
             "count");
  report.add("service.stale_frac",
             handle_solves.back() > 0
                 ? static_cast<double>(stale.back())
                       / static_cast<double>(handle_solves.back())
                 : 0.0,
             "fraction");
  const double untraced_p50 = percentile(untraced.latency, 0.50);
  const double traced_p50 = percentile(traced.latency, 0.50);
  const double queue_p50 = percentile(traced.queue, 0.50);
  const double exec_p50 = percentile(traced.exec, 0.50);
  report.add("latency_ms.p90", percentile(untraced.latency, 0.90), "ms");
  report.add("trace.untraced_p50_ms", untraced_p50, "ms");
  report.add("trace.traced_p50_ms", traced_p50, "ms");
  report.add("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0,
             "fraction");
  report.add("trace.stage_sum_ms", queue_p50 + exec_p50, "ms");
  report.add("trace.largest_layer_share",
             std::max(queue_p50, exec_p50) / traced_p50, "fraction");
  report.note(std::string("largest layer: ")
              + (queue_p50 >= exec_p50 ? "service.queue_wait"
                                       : "service.exec")
              + " ("
              + std::to_string(std::max(queue_p50, exec_p50) / traced_p50)
              + " of traced latency p50); stage sum (queue p50 + exec p50) "
              + std::to_string(queue_p50 + exec_p50) + " ms vs untraced p50 "
              + std::to_string(untraced_p50) + " ms: with cache hits the "
              + "exec time is bimodal, so the stage medians need not add up "
              + "to the latency median");
  report.add("failed_frac",
             static_cast<double>(report.failed)
                 / static_cast<double>(report.attempted),
             "fraction");
  if (!args.spans_path.empty()) log.write_json(args.spans_path);
  return report;
}

}  // namespace perfbench
