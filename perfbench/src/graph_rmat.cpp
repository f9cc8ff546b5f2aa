// graph_rmat: the paper's fig9/fig10 dynamic-graph application on
// StreamingGraphCPMA, a symmetrized RMAT graph (a=.5, b=c=.1) small enough
// to sit in cache, a pool of nproc workers and one client thread.
//
// Set-up: the initial edge set through insert_edges + flush (median of
// kSetupReps). Each round: kBatchesPerRound insert_edges batches of
// kBatchKeys keys, flush(), pin a snapshot, prepare() + BFS from vertex 0,
// CC on the same prepared snapshot, then kReadsPerRound read requests on
// that snapshot (has_edges of kReadProbes edge keys, half stored and half
// absent, and a map_range_length of kReadScanLen edge keys). After every
// round the answers are compared with a graph::Csr reference built from
// the benchmark's own sorted edge vector.
//
// PageRank is not run: the library's flat PageRank path (pagerank() on a
// container with scan_neighbor_runs) sums degrees with a non-atomic add
// from parallel leaf tasks, so its answer is wrong in most runs.
#include <algorithm>
#include <vector>

#include "check.hpp"
#include "common.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/streaming.hpp"
#include "layers.hpp"
#include "parallel/scheduler.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using Graph = cpma::graph::StreamingGraphCPMA;
using cpma::graph::vertex_t;

constexpr uint32_t kScale = 18;
constexpr uint64_t kInitialEdges = 2'000'000;  // directed, before symmetrizing
constexpr uint64_t kBatchKeys = 100'000;
constexpr uint64_t kBatchesPerRound = 2;
constexpr int kSetupReps = 5;
constexpr uint64_t kReadsPerRound = 80;  // 25 rounds: >= 10 samples beyond the p99
constexpr vertex_t kSource = 0;  // RMAT's densest corner: the hub

// kBatchKeys / 2 non-loop RMAT edges, both directions (duplicates of stored
// edges are kept: a real edge stream re-sends edges).
std::vector<uint64_t> edge_batch(uint64_t seed, uint64_t b) {
  const std::vector<uint64_t> raw = cpma::graph::rmat_edges(
      kScale, kBatchKeys, cpma::util::hash64(seed ^ cpma::util::hash64(b + 1)));
  std::vector<uint64_t> out;
  out.reserve(kBatchKeys);
  for (uint64_t e : raw) {
    const vertex_t u = cpma::graph::edge_src(e), v = cpma::graph::edge_dst(e);
    if (u == v) continue;
    out.push_back(cpma::graph::edge_key(u, v));
    out.push_back(cpma::graph::edge_key(v, u));
    if (out.size() == kBatchKeys) break;
  }
  return out;
}

void merge_into(std::vector<uint64_t>& ref, std::vector<uint64_t> batch) {
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  std::vector<uint64_t> out;
  out.reserve(ref.size() + batch.size());
  std::set_union(ref.begin(), ref.end(), batch.begin(), batch.end(),
                 std::back_inserter(out));
  ref.swap(out);
}

// kReadsPerRound timed read requests on the pinned snapshot `snap`, whose
// edge set is `ref`; returns the number of wrong answers.
uint64_t read_requests(const Graph::Snapshot& snap, const std::vector<uint64_t>& ref,
                       uint64_t round, SpanLog& log, std::vector<double>& read_us) {
  const vertex_t n = vertex_t{1} << kScale;
  std::vector<uint64_t> probes(kReadProbes), out(kReadScanLen);
  uint64_t bad = 0;
  for (uint64_t r = 0; r < kReadsPerRound; ++r) {
    const uint64_t id = round * kReadsPerRound + r;
    auto h = [&](uint64_t i) { return cpma::util::hash64(cpma::util::hash64(id) ^ i); };
    for (uint64_t i = 0; i < kReadProbes; ++i) {
      const uint64_t x = h(i);
      probes[i] = (i & 1) ? cpma::graph::edge_key(x % n, (x >> 32) % n)  // almost all absent
                          : ref[x % ref.size()];
    }
    std::sort(probes.begin(), probes.end());
    const uint64_t start = ref[h(kReadProbes) % ref.size()];
    std::vector<uint64_t> bits;
    uint64_t got = 0;
    {
      Scope req(log, "graph.read_request", id);
      Stopwatch sw;
      {
        Scope s(log, "graph.has_edges", id);
        bits = snap.has_edges(probes.data(), kReadProbes);
      }
      {
        Scope s(log, "serving.map_range_length", id);
        snap.pin().map_range_length([&](uint64_t k) { out[got++] = k; }, start,
                                    kReadScanLen);
      }
      read_us.push_back(sw.ns() * 1e-3);
    }
    const auto at = std::lower_bound(ref.begin(), ref.end(), start);
    bad += check::bitmap_mismatches(bits.data(), probes.data(), kReadProbes,
                                    [&](uint64_t k) {
                                      return std::binary_search(ref.begin(), ref.end(), k);
                                    });
    bad += check::scan_mismatches(
        out.data(), got, &*at,
        std::min<uint64_t>(kReadScanLen, static_cast<uint64_t>(ref.end() - at)));
  }
  return bad;
}

}  // namespace

void run_graph_rmat(const Options& opt, Report& rep) {
  const unsigned pool = hardware_threads();
  cpma::par::Scheduler::set_num_workers(pool);
  const vertex_t n = vertex_t{1} << kScale;
  const uint64_t rounds = std::max<uint64_t>(15, 5 * opt.seconds / 2);

  rep.info("why", Report::str(
      "paper fig9/fig10 dynamic graph: scan-bound leaf decode and the graph "
      "layer dominate, serving on the path without readers, durable "
      "bypassed; data fits in cache"));
  rep.info("pool_workers", Report::num(pool));
  rep.info("client_threads", "1");
  rep.info("rmat_scale", Report::num(kScale));
  rep.info("rounds", Report::num(static_cast<double>(rounds)));

  SpanLog log(opt.trace, "client");

  PhaseClock clock(rep);
  // ---- set-up ---------------------------------------------------------------------
  std::vector<uint64_t> ref =
      cpma::graph::symmetrize(cpma::graph::rmat_edges(kScale, kInitialEdges, opt.seed));
  std::unique_ptr<Graph> g;
  {
    std::vector<double> setup;
    for (int r = 0; r < kSetupReps; ++r) {
      g.reset();
      Scope s(log, "graph.setup");
      Stopwatch sw;
      g = std::make_unique<Graph>(n);
      g->insert_edges(ref);
      g->flush();
      setup.push_back(sw.seconds());
    }
    rep.e2e("setup_s", median(setup));
  }
  rep.info("initial_edge_keys", Report::num(static_cast<double>(ref.size())));

  clock.lap("setup");
  const auto& store = g->serve().store();
  const cpma::pma::BatchPhaseTimes phases0 = store.batch_phase_times();
  const cpma::pma::ShardRouterTimes router0 = store.router_times();
  const cpma::serve::ServingStats serving0 = g->serve().stats();
  std::vector<double> insert_rate, insert_ms, bfs_s, cc_s, read_us, ages;
  double flush_s = 0, prepare_s = 0;
  uint64_t retired_max = 0;

  for (uint64_t round = 0; round < rounds; ++round) {
    std::vector<int32_t> depth;
    std::vector<vertex_t> comp;
    uint64_t edges = 0, read_mismatches = 0;
    {
      Scope rs(log, "graph.round", round);
      for (uint64_t b = 0; b < kBatchesPerRound; ++b) {
        std::vector<uint64_t> batch = edge_batch(opt.seed, round * kBatchesPerRound + b);
        merge_into(ref, batch);
        const uint64_t keys = batch.size();
        Scope s(log, "graph.insert_edges", round);
        Stopwatch sw;
        g->insert_edges(std::move(batch));
        const double secs = sw.seconds();
        insert_rate.push_back(keys / secs);
        insert_ms.push_back(secs * 1e3);
      }
      {
        Scope s(log, "graph.flush", round);
        Stopwatch sw;
        g->flush();
        flush_s += sw.seconds();
      }
      retired_max = std::max(retired_max, g->serve().stats().retired_views);

      Graph::Snapshot snap = [&] {
        Scope s(log, "serving.snapshot", round);
        return g->snapshot();
      }();
      ages.push_back(snap.age_ns() * 1e-6);
      edges = snap.num_edges();
      {
        Scope s(log, "graph.bfs", round);
        Stopwatch sw;
        {
          Scope p(log, "graph.prepare", round);
          Stopwatch sp;
          snap.prepare();
          prepare_s += sp.seconds();
        }
        depth = cpma::graph::bfs(snap, kSource);
        bfs_s.push_back(sw.seconds());
      }
      {
        Scope s(log, "graph.cc", round);
        Stopwatch sw;
        comp = cpma::graph::connected_components(snap);
        cc_s.push_back(sw.seconds());
      }
      // On one worker, as serve_timeseries' readers run them.
      cpma::par::Scheduler::set_num_workers(1);
      read_mismatches = read_requests(snap, ref, round, log, read_us);
      cpma::par::Scheduler::set_num_workers(pool);
    }

    // ---- check this round against the CSR reference ----------------------------
    const cpma::graph::Csr csr(n, ref);
    const std::string at = " (round " + std::to_string(round) + ")";
    rep.check("edge count" + at, edges != ref.size());
    rep.check("BFS depths" + at,
              check::depth_mismatches(depth, check::ref_bfs(csr, kSource)));
    rep.check("CC partition" + at,
              check::partition_mismatches(comp, check::ref_components(n, ref)));
    rep.check("read requests" + at, read_mismatches);
  }

  clock.lap("rounds");
  rep.e2e("insert_keys_per_s", median(insert_rate));
  rep.e2e("write_p50_ms", median(insert_ms));
  rep.e2e("read_p99_us", quantile(read_us, 0.99));
  rep.layer("read_p50_us", median(read_us));
  rep.info("read_p50_us", Report::num(median(read_us)));
  rep.info("read_samples_beyond_p99",
           Report::num(static_cast<double>(samples_beyond(read_us, 0.99))));
  rep.layer("bfs_s", median(bfs_s));
  rep.layer("cc_s", median(cc_s));
  const uint64_t resident = store.get_size();
  rep.e2e("bytes_per_key", static_cast<double>(resident) / g->num_edges());
  rep.info("resident_bytes", Report::num(static_cast<double>(resident)));
  rep.info("resident_over_l3", Report::num(static_cast<double>(resident) / kL3Bytes));
  if (2 * resident >= kL3Bytes) {
    std::fprintf(stderr, "perfbench: graph_rmat store above half the L3\n");
  }

  // ---- per-layer detail ---------------------------------------------------------
  const cpma::pma::ShardRouterTimes router = store.router_times() - router0;
  cpma::pma::BatchPhaseTimes engine_only = store.batch_phase_times() - phases0;
  engine_only.route_ns -= std::min(engine_only.route_ns, router.route_ns);
  report_engine_phases(engine_only, rep);
  const cpma::serve::ServingStats serving = g->serve().stats() - serving0;
  rep.layer("serving.publishes", static_cast<double>(serving.publishes));
  rep.layer("serving.shard_copies", static_cast<double>(serving.shard_copies));
  rep.layer("serving.copies_per_publish",
            serving.publishes ? static_cast<double>(serving.shard_copies) / serving.publishes : 0.0);
  rep.layer("serving.publish_s", serving.publish_ns * 1e-9);
  rep.layer("serving.apply_s", serving.apply_ns * 1e-9);
  rep.layer("serving.snapshot_age_p99_ms", quantile(ages, 0.99));
  rep.layer("serving.retired_views_max", static_cast<double>(retired_max));
  rep.layer("serving.vetoed_ops", static_cast<double>(serving.vetoed_ops));
  rep.layer("graph.insert_edges_p50_ms", median(insert_ms));
  rep.layer("graph.flush_s", flush_s);
  rep.layer("graph.prepare_s", prepare_s);
  rep.fail("serving vetoed ops", serving.vetoed_ops);
  if (opt.trace) {
    std::map<std::string, SpanStats> sum = summarize({&log});
    rep.layer("serving.pin_p50_ns", quantile(sum["serving.snapshot"].durations_ns, 0.5));
    const Graph::Snapshot snap = g->snapshot();
    const auto& view = snap.pin().view();
    size_t cap = 0;
    for (uint64_t s = 0; s < view.num_shards(); ++s) {
      cap = std::max<size_t>(cap, view.shard_ref(s)->leaf_bytes());
    }
    probe_codec<cpma::CPMA::leaf_policy>(view, cap, rep);
    probe_leaf_scan(view, rep);
    report_sharded(store, router, rep);
  }
  clock.lap("layers");
  report_spans(opt, rep, {&log});
}

}  // namespace perfbench
