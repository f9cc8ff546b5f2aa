// set_uniform: the paper's fig1/fig2/table6 microbenchmark on the bare CPMA
// engine. Uniform 40-bit keys, a pool of nproc workers, one client thread
// that issues each call after the previous one returned.
//
//   1. bulk build (setup_s, median of kSetupReps builds)
//   2. insert_batch of kBatch keys until the set has doubled
//   3. queries on the final state: per-op has/successor in arrival order,
//      sorted has_batch multi-gets (half stored, half absent keys),
//      fixed-length map_range_length scans from uniform starts, and read
//      requests of the shape every workload times (read_p99_us)
//   4. remove_batch of stored keys
//
// Keys are key(i) = mix40(i ^ seed) + 1 for a bijective 40-bit mixer, so
// every index names a distinct key: indices below the number inserted are
// stored keys, indices above it absent ones. The reference is the sorted
// vector of every inserted key; every timed answer is compared with it.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include "check.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "parallel/scheduler.hpp"
#include "pma/cpma.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using Engine = cpma::CPMA;

constexpr unsigned kKeyBits = 40;
constexpr uint64_t kMask = (uint64_t{1} << kKeyBits) - 1;
// Sized so the engine ends above twice the reference machine's L3.
constexpr uint64_t kBulkKeys = 36'000'000;
constexpr uint64_t kBatch = 100'000;
constexpr int kSetupReps = 3;
constexpr uint64_t kPointGroup = 4096;    // per-op queries timed together
constexpr uint64_t kMultiget = 10'000;    // probes per has_batch call
constexpr uint64_t kScanLen = 1024;       // keys per map_range_length scan
constexpr uint64_t kScanGroup = 256;      // scans issued per pool round
constexpr uint64_t kSpeedupEvery = 8;     // every 8th call runs on 1 worker
constexpr uint64_t kReadRequests = 2000;  // >= 10 samples beyond the p99

// Bijective on [0, 2^40): xorshifts and odd multiplies modulo 2^40.
constexpr uint64_t mix40(uint64_t x) {
  x &= kMask;
  x ^= x >> 19;
  x = (x * 0x9E3779B97Full) & kMask;
  x ^= x >> 21;
  x = (x * 0xC2B2AE3D27D5ull) & kMask;
  x ^= x >> 17;
  return x;
}

class Keys {
 public:
  explicit Keys(uint64_t seed)
      : seed_(seed), salt_(cpma::util::hash64(seed) & kMask) {}
  uint64_t key(uint64_t i) const { return mix40(i ^ salt_) + 1; }
  // Draw r of a stream: a pseudo-random 64-bit value (deterministic).
  uint64_t draw(uint64_t stream, uint64_t r) const {
    return cpma::util::hash64(seed_ ^ cpma::util::hash64(stream * 0x100000000ull + r));
  }

 private:
  uint64_t seed_, salt_;
};

}  // namespace

void run_set_uniform(const Options& opt, Report& rep) {
  const unsigned nproc = hardware_threads();
  const unsigned pool = nproc;
  cpma::par::Scheduler::set_num_workers(pool);
  const Keys keys(opt.seed);
  const uint64_t n_total = 2 * kBulkKeys;
  const uint64_t insert_batches = kBulkKeys / kBatch;
  // Query and remove volumes scale with --seconds; at --seconds 10 each of
  // these per-layer phases takes about 1.5 s with its checks.
  const double scale = opt.seconds / 10.0;
  const uint64_t point_groups = std::max<uint64_t>(20, 120 * scale);
  const uint64_t multigets = std::max<uint64_t>(20, 120 * scale);
  const uint64_t scan_groups = std::max<uint64_t>(40, 600 * scale);
  const uint64_t remove_batches =
      std::min<uint64_t>(insert_batches, std::max<uint64_t>(20, 24 * scale));

  rep.info("why", Report::str(
      "bandwidth-bound bare-engine microbenchmark (paper fig1/fig2/table6): "
      "codec, leaf and engine do all the work; control for layers above"));
  rep.info("pool_workers", Report::num(pool));
  rep.info("client_threads", "1");
  rep.info("engine", Report::str("CPMA (CompressedLeaf<ByteVarint>)"));
  rep.info("bulk_keys", Report::num(kBulkKeys));
  rep.info("batch_keys", Report::num(kBatch));

  SpanLog log(opt.trace, "client");
  // Every kSpeedupEvery-th insert batch and scan group runs on one worker
  // (traced or not, so both runs execute the same calls); the end-to-end
  // medians take only the pool-size calls.
  auto on_one_worker = [&](uint64_t call) {
    return call % kSpeedupEvery == kSpeedupEvery - 1;
  };

  PhaseClock clock(rep);
  // ---- 1. bulk build ----------------------------------------------------
  std::unique_ptr<Engine> e;
  {
    std::vector<uint64_t> bulk(kBulkKeys);
    threads_for(kBulkKeys, nproc, [&](uint64_t lo, uint64_t hi) {
      for (uint64_t i = lo; i < hi; ++i) bulk[i] = keys.key(i);
    });
    std::vector<double> setup;
    for (int r = 0; r < kSetupReps; ++r) {
      e.reset();
      Scope s(log, "engine.build");
      Stopwatch sw;
      e = std::make_unique<Engine>(bulk.data(), bulk.data() + bulk.size());
      setup.push_back(sw.seconds());
    }
    rep.e2e("setup_s", median(setup));
  }
  rep.attempted(1);
  if (e->size() != kBulkKeys) rep.fail("bulk build size");

  clock.lap("setup");
  // ---- reference: every key the run inserts, sorted ------------------------
  std::vector<uint64_t> ref_keys(n_total);
  threads_for(n_total, nproc, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) ref_keys[i] = keys.key(i);
  });
  check::sort_keys(ref_keys, kKeyBits + 1, nproc);
  const check::RefSet ref(std::move(ref_keys));

  clock.lap("reference");
  // ---- 2. insert until doubled -------------------------------------------
  const cpma::pma::BatchPhaseTimes phases0 = e->batch_phase_times();
  std::vector<uint64_t> batch(kBatch);
  std::vector<double> insert_rate, insert_rate_1w, insert_ms;
  for (uint64_t b = 0; b < insert_batches; ++b) {
    const uint64_t base = kBulkKeys + b * kBatch;
    for (uint64_t i = 0; i < kBatch; ++i) batch[i] = keys.key(base + i);
    const bool one = on_one_worker(b);
    if (one) cpma::par::Scheduler::set_num_workers(1);
    uint64_t added;
    double secs;
    {
      Scope s(log, "engine.insert_batch", b);
      Stopwatch sw;
      added = e->insert_batch(batch.data(), kBatch);
      secs = sw.seconds();
    }
    if (one) cpma::par::Scheduler::set_num_workers(pool);
    (one ? insert_rate_1w : insert_rate).push_back(kBatch / secs);
    if (!one) insert_ms.push_back(secs * 1e3);
    rep.attempted(1);
    if (added != kBatch) rep.fail("insert_batch returned " + std::to_string(added));
  }
  rep.e2e("insert_keys_per_s", median(insert_rate));
  rep.e2e("write_p50_ms", median(insert_ms));
  rep.attempted(1);
  if (e->size() != n_total) rep.fail("size after inserts");
  const uint64_t resident = e->get_size();
  rep.e2e("bytes_per_key", static_cast<double>(resident) / e->size());
  rep.info("resident_bytes", Report::num(static_cast<double>(resident)));
  rep.info("resident_over_l3", Report::num(static_cast<double>(resident) / kL3Bytes));
  if (resident < 2 * kL3Bytes) {
    std::fprintf(stderr, "perfbench: set_uniform engine below 2x L3\n");
  }

  clock.lap("insert");
  // Probe mix shared by the query phases: even draws hit stored keys, odd
  // draws absent ones.
  auto probe = [&](uint64_t stream, uint64_t r) {
    const uint64_t h = keys.draw(stream, r);
    return (r & 1) ? keys.key(n_total + (h % (uint64_t{1} << 39)))
                   : keys.key(h % n_total);
  };

  // ---- 3a. per-op has/successor in arrival order ---------------------------
  {
    std::vector<uint64_t> q(kPointGroup), got(kPointGroup);
    std::vector<uint8_t> found(kPointGroup);
    std::vector<double> rate;
    for (uint64_t g = 0; g < point_groups; ++g) {
      for (uint64_t i = 0; i < kPointGroup; ++i) {
        // Successor probes are uniform points of the key space.
        q[i] = (i & 2) ? (keys.draw(2, g * kPointGroup + i) & kMask)
                       : probe(1, g * kPointGroup + i);
      }
      Stopwatch sw;
      for (uint64_t i = 0; i < kPointGroup; ++i) {
        if (i & 2) {
          Scope s(log, "engine.successor", i);
          std::optional<uint64_t> r = e->successor(q[i]);
          found[i] = r.has_value();
          got[i] = r.value_or(0);
        } else {
          Scope s(log, "engine.has", i);
          found[i] = e->has(q[i]);
        }
      }
      rate.push_back(kPointGroup / sw.seconds());
      for (uint64_t i = 0; i < kPointGroup; ++i) {
        if (i & 2) {
          const uint64_t at = ref.lower(q[i]);
          const bool want = at < ref.size();
          if (found[i] != want || (want && got[i] != ref.keys()[at])) {
            rep.fail("successor(" + std::to_string(q[i]) + ")");
          }
        } else if (found[i] != ref.has(q[i])) {
          rep.fail("has(" + std::to_string(q[i]) + ")");
        }
      }
      rep.attempted(kPointGroup);
    }
    rep.layer("point_queries_per_s", median(rate));
  }

  clock.lap("point_queries");
  // ---- 3b. sorted has_batch multi-gets -----------------------------------------
  {
    std::vector<uint64_t> q(kMultiget);
    std::vector<double> rate;
    double busy = 0;
    for (uint64_t c = 0; c < multigets; ++c) {
      for (uint64_t i = 0; i < kMultiget; ++i) q[i] = probe(3, c * kMultiget + i);
      std::sort(q.begin(), q.end());
      std::vector<uint64_t> bits;
      double secs;
      {
        Scope s(log, "engine.has_batch", c);
        Stopwatch sw;
        bits = e->has_batch(q.data(), kMultiget);
        secs = sw.seconds();
      }
      busy += secs;
      rate.push_back(kMultiget / secs);
      rep.fail("has_batch bitmap", check::bitmap_mismatches(
                                       bits.data(), q.data(), kMultiget,
                                       [&](uint64_t k) { return ref.has(k); }));
      rep.attempted(kMultiget);
    }
    rep.layer("multiget_keys_per_s", median(rate));
    rep.layer("engine.has_batch_s", busy);
  }

  clock.lap("multiget");
  // ---- 3c. fixed-length range scans ---------------------------------------------
  {
    std::vector<uint64_t> start(kScanGroup), out(kScanGroup * kScanLen);
    std::vector<uint64_t> delivered(kScanGroup);
    std::vector<double> rate, rate_1w;
    double busy = 0;
    for (uint64_t g = 0; g < scan_groups; ++g) {
      for (uint64_t i = 0; i < kScanGroup; ++i) {
        start[i] = keys.draw(4, g * kScanGroup + i) & kMask;
      }
      const bool one = on_one_worker(g);
      if (one) cpma::par::Scheduler::set_num_workers(1);
      uint64_t total = 0;
      double secs;
      {
        Scope s(log, "engine.map_range_length", g);
        Stopwatch sw;
        cpma::par::parallel_for(0, kScanGroup, [&](uint64_t i) {
          uint64_t* dst = out.data() + i * kScanLen;
          uint64_t n = 0;
          delivered[i] = e->map_range_length(
              [&](uint64_t k) { dst[n++] = k; }, start[i], kScanLen);
        }, 1);
        secs = sw.seconds();
      }
      if (one) cpma::par::Scheduler::set_num_workers(pool);
      for (uint64_t i = 0; i < kScanGroup; ++i) {
        total += delivered[i];
        const uint64_t at = ref.lower(start[i]);
        const uint64_t want_n = std::min(kScanLen, ref.size() - at);
        rep.check("map_range_length scan",
                  check::scan_mismatches(out.data() + i * kScanLen, delivered[i],
                                         ref.keys().data() + at, want_n));
      }
      if (!one) busy += secs;
      (one ? rate_1w : rate).push_back(total / secs);
    }
    rep.layer("range_keys_per_s", median(rate));
    rep.layer("engine.map_range_length_s", busy);
    rep.layer("parallel.scan_speedup", median(rate) / median(rate_1w));
    rep.layer("parallel.insert_speedup",
              median(insert_rate) / median(insert_rate_1w));
  }

  clock.lap("range");
  // ---- 3d. read requests: has_batch of kReadProbes + one scan ----------------
  // On one worker, as serve_timeseries' readers run them: the fan-out's
  // wake-ups would otherwise set the p99.
  {
    cpma::par::Scheduler::set_num_workers(1);
    std::vector<uint64_t> q(kReadProbes), out(kReadScanLen);
    std::vector<double> lat_us;
    for (uint64_t r = 0; r < kReadRequests; ++r) {
      for (uint64_t i = 0; i < kReadProbes; ++i) q[i] = probe(5, r * kReadProbes + i);
      std::sort(q.begin(), q.end());
      const uint64_t start = keys.draw(6, r) & kMask;
      std::vector<uint64_t> bits;
      uint64_t n = 0;
      {
        Scope req(log, "engine.read_request", r);
        Stopwatch sw;
        {
          Scope s(log, "engine.has_batch", r);
          bits = e->has_batch(q.data(), kReadProbes);
        }
        {
          Scope s(log, "engine.map_range_length", r);
          e->map_range_length([&](uint64_t k) { out[n++] = k; }, start, kReadScanLen);
        }
        lat_us.push_back(sw.ns() * 1e-3);
      }
      const uint64_t at = ref.lower(start);
      rep.check("read request",
                check::bitmap_mismatches(bits.data(), q.data(), kReadProbes,
                                         [&](uint64_t k) { return ref.has(k); }) +
                    check::scan_mismatches(out.data(), n, ref.keys().data() + at,
                                           std::min(kReadScanLen, ref.size() - at)));
    }
    cpma::par::Scheduler::set_num_workers(pool);
    rep.e2e("read_p99_us", quantile(lat_us, 0.99));
    rep.layer("read_p50_us", median(lat_us));
    rep.info("read_p50_us", Report::num(median(lat_us)));
    rep.info("read_samples_beyond_p99",
             Report::num(static_cast<double>(samples_beyond(lat_us, 0.99))));
  }

  clock.lap("read_requests");
  // ---- 4. remove stored keys -------------------------------------------------------
  std::vector<uint64_t> removed;
  {
    std::vector<double> rate;
    for (uint64_t b = 0; b < remove_batches; ++b) {
      const uint64_t base = kBulkKeys + b * kBatch;
      for (uint64_t i = 0; i < kBatch; ++i) batch[i] = keys.key(base + i);
      removed.insert(removed.end(), batch.begin(), batch.end());
      uint64_t gone;
      double secs;
      {
        Scope s(log, "engine.remove_batch", b);
        Stopwatch sw;
        gone = e->remove_batch(batch.data(), kBatch);
        secs = sw.seconds();
      }
      rate.push_back(kBatch / secs);
      rep.attempted(1);
      if (gone != kBatch) rep.fail("remove_batch returned " + std::to_string(gone));
    }
    rep.layer("remove_keys_per_s", median(rate));
  }

  clock.lap("remove");
  // ---- final state: exactly the reference minus the removed keys -----------------
  {
    check::sort_keys(removed, kKeyBits + 1, nproc);
    std::vector<uint64_t> want;
    want.reserve(ref.size() - removed.size());
    std::set_difference(ref.keys().begin(), ref.keys().end(), removed.begin(),
                        removed.end(), std::back_inserter(want));
    uint64_t at = 0, bad = 0;
    e->map([&](uint64_t k) {
      if (at >= want.size() || want[at] != k) ++bad;
      ++at;
    });
    rep.check("final set contents", bad + (at > want.size() ? at - want.size()
                                                            : want.size() - at));
  }

  clock.lap("final_check");
  // ---- per-layer detail ---------------------------------------------------------------
  report_engine_phases(e->batch_phase_times() - phases0, rep);
  rep.layer("engine.density", e->density());
  rep.layer("engine.num_leaves", static_cast<double>(e->num_leaves()));
  if (opt.trace) {
    std::map<std::string, SpanStats> sum = summarize({&log});
    rep.layer("engine.successor_p50_ns",
              quantile(sum["engine.successor"].durations_ns, 0.5));
    probe_codec<Engine::leaf_policy>(*e, e->leaf_bytes(), rep);
    probe_leaf_scan(*e, rep);
  }
  clock.lap("layers");
  report_spans(opt, rep, {&log});
}

}  // namespace perfbench
