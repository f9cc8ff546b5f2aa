// serve_timeseries: DurableACPMA on io::PosixVfs with the default interval
// fsync policy. A pool of 2 workers whose worker 0 is the writer thread,
// and two reader threads; every client is a closed loop.
//
// Writer step t: one insert_batch of the keys arriving at t (~1e4), one
// remove_batch expiring step t - kWindowSteps, and every kCheckpointEvery
// steps a synchronous checkpoint(). Reader request: pin a snapshot,
// has_batch of 1024 sorted probes (half generated keys, half keys that are
// never generated), map_range_length of 1024 keys from a key in the window.
// At the end the writer syncs the WAL and drops the store (a crash to the
// library); reopening it is recovery_s. The same reopen is also timed every
// kReopenEvery steps during the live phase, on a copy of the synced store
// with the readers parked, so recovery_s averages over the whole run rather
// than over one stretch of it.
//
// Keys are timestamps: step t owns [kT0 + t*kStepSpan, +kStepSpan), laid out
// as kBlocks dense runs, one per kBlockStride slot; run (t, b) holds the
// first len(t, b) offsets of its slot. Five runs per step arrive 1-4 steps
// late. Whether a key was generated is a pure function of the key, so
// readers check every returned key without shared state.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "check.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "parallel/scheduler.hpp"
#include "pma/cpma.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using Engine = cpma::ACPMA;
using Store = cpma::DurableACPMA;

constexpr uint64_t kBlocks = 100;
constexpr uint64_t kBlockStride = 256;
constexpr uint64_t kStepSpan = kBlocks * kBlockStride;
constexpr uint64_t kT0 = uint64_t{1} << 44;
constexpr uint64_t kWindowSteps = 200;
constexpr uint64_t kCheckpointEvery = 50;  // 2% of steps: p99 lands inside the checkpoint stalls
constexpr uint64_t kMaxLag = 4;
constexpr uint64_t kAbsentFrom = 150;  // offsets >= this are never generated
constexpr uint64_t kReaders = 2;
constexpr unsigned kPool = 2;
// One shard per pool worker, the library's default. With 2 shards the
// largest can never exceed rebalance_ratio (2.0) times the mean, so the
// router never rebalances here. With 4 shards it does under the moving
// window, but the writer's cost then depends on where the rebalances leave
// the boundaries, which differs from seed to seed (insert_keys_per_s
// 0.64-1.04e6 over five seeds, each repeatable), beyond any bound.
constexpr uint64_t kShards = kPool;
constexpr int kSetupReps = 9;
constexpr uint64_t kReopenEvery = 100;  // steps; at the same checkpoint phase as the end
static_assert(kReopenEvery % kCheckpointEvery == 0 && kWindowSteps % kCheckpointEvery == 0);
constexpr uint64_t kLadderSteps = 300;
constexpr uint64_t kPreloadChunk = 25;  // steps per preload insert_batch

class Series {
 public:
  explicit Series(uint64_t seed) : seed_(seed) {}

  // Runs pair up so every step holds exactly kBlocks * 100 keys.
  uint64_t len(uint64_t t, uint64_t b) const {
    const uint64_t x = cpma::util::hash64(seed_ ^ cpma::util::hash64(t * kBlocks + b / 2)) % 50;
    return b % 2 == 0 ? 100 + x : 100 - x;
  }
  static uint64_t lag(uint64_t b) { return b % 20 == 0 ? 1 + (b / 20) % kMaxLag : 0; }
  static uint64_t base(uint64_t t, uint64_t b) {
    return kT0 + t * kStepSpan + b * kBlockStride;
  }
  bool generated(uint64_t key) const {
    if (key < kT0) return false;
    const uint64_t off = key - kT0;
    return off % kBlockStride < len(off / kStepSpan, (off % kStepSpan) / kBlockStride);
  }
  void append_run(uint64_t t, uint64_t b, std::vector<uint64_t>& out) const {
    const uint64_t k0 = base(t, b), n = len(t, b);
    for (uint64_t i = 0; i < n; ++i) out.push_back(k0 + i);
  }
  // Keys whose arrival step is t: on-time runs of t, late runs of t - lag.
  std::vector<uint64_t> arrivals(uint64_t t) const {
    std::vector<uint64_t> out;
    out.reserve(kBlocks * 100 + 1024);
    for (uint64_t b = 0; b < kBlocks; ++b) {
      const uint64_t l = lag(b);
      if (l == 0) append_run(t, b, out);
      else if (t >= l) append_run(t - l, b, out);
    }
    return out;
  }
  std::vector<uint64_t> step_keys(uint64_t t) const {
    std::vector<uint64_t> out;
    out.reserve(kBlocks * 100);
    for (uint64_t b = 0; b < kBlocks; ++b) append_run(t, b, out);
    return out;
  }
  // Exact contents after step `last` (arrivals 0..last, steps up to
  // last - kWindowSteps expired), sorted.
  std::vector<uint64_t> expected(uint64_t last) const {
    std::vector<uint64_t> out;
    const uint64_t first = last >= kWindowSteps ? last - kWindowSteps + 1 : 0;
    for (uint64_t t = first; t <= last; ++t) {
      for (uint64_t b = 0; b < kBlocks; ++b) {
        if (t + lag(b) <= last) append_run(t, b, out);
      }
    }
    return out;  // ascending by construction
  }

 private:
  uint64_t seed_;
};

cpma::serve::ServingSettings serving_settings() {
  cpma::serve::ServingSettings cfg;
  cfg.sharded.num_shards = kShards;
  return cfg;
}

cpma::durable::DurableSettings store_settings() {
  cpma::durable::DurableSettings cfg;
  cfg.serving = serving_settings();
  cfg.wal = cpma::durable::WalSettings{};  // the library's default policy
  return cfg;
}

template <typename Snap>
uint64_t contents_mismatches(const Snap& snap, const std::vector<uint64_t>& want) {
  std::vector<uint64_t> got;
  got.reserve(want.size());
  snap.map([&](uint64_t k) { got.push_back(k); });
  return check::scan_mismatches(got.data(), got.size(), want.data(), want.size());
}

// The window's first kWindowSteps arrivals, in kPreloadChunk-step batches.
template <typename S>
void preload(S& s, const Series& series) {
  for (uint64_t t0 = 0; t0 < kWindowSteps; t0 += kPreloadChunk) {
    std::vector<uint64_t> keys;
    for (uint64_t t = t0; t < std::min(t0 + kPreloadChunk, kWindowSteps); ++t) {
      const std::vector<uint64_t> a = series.arrivals(t);
      keys.insert(keys.end(), a.begin(), a.end());
    }
    s.insert_batch(std::move(keys));
  }
}

// The writer stream once more, with one writer and no readers, through each
// layer of the stack in turn; returns the seconds of the live steps.
template <typename S>
double ladder_row(S& s, const Series& series, uint64_t steps) {
  preload(s, series);
  Stopwatch sw;
  for (uint64_t t = kWindowSteps; t < kWindowSteps + steps; ++t) {
    s.insert_batch(series.arrivals(t));
    s.remove_batch(series.step_keys(t - kWindowSteps));
  }
  return sw.seconds();
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / v.size();
}

}  // namespace

void run_serve_timeseries(const Options& opt, Report& rep) {
  namespace fs = std::filesystem;
  // Placement: each reader gets a CPU of its own (the first kReaders), the
  // writer and the pool it starts share the last kPool CPUs, where the
  // WAL's I/O completions are handled on the reference machine. Left to
  // the OS, a reader sometimes shares a CPU with a pool worker and runs at
  // half speed, which splits the read latency into two modes whose mix
  // changes from run to run.
  const bool pin = hardware_threads() >= kPool + kReaders;
  if (pin) pin_to_cpus(hardware_threads() - kPool, kPool);
  cpma::par::Scheduler::set_num_workers(kPool);
  const Series series(opt.seed);
  // A multiple of kReopenEvery, so the last step sits at the same distance
  // from its checkpoint as every mid-run reopen.
  const uint64_t live_steps = std::max<uint64_t>(
      1100, (110 * static_cast<uint64_t>(opt.seconds) + kReopenEvery - 1) /
                kReopenEvery * kReopenEvery);
  const std::string root = opt.work_dir + "/serve-seed" + std::to_string(opt.seed);
  fs::remove_all(root);
  fs::create_directories(root);
  cpma::durable::io::PosixVfs vfs;

  rep.info("why", Report::str(
      "time-series serving: writes beside pinned-snapshot reads, publish/COW, "
      "moving-hot-spot rebalancing, WAL and checkpoint stalls, ACPMA format "
      "selection on dense runs"));
  rep.info("pool_workers", Report::num(kPool));
  rep.info("shards", Report::num(kShards));
  rep.info("client_threads", Report::num(1 + kReaders));
  rep.info("writer_is_worker0", "true");
  rep.info("pinned", pin ? "\"reader r on CPU r, writer+pool on the last 2 CPUs\"" : "false");
  rep.info("vfs", Report::str("io::PosixVfs"));
  rep.info("fsync_policy", Report::str("interval (1 MiB or 50 ms, library default)"));
  rep.info("window_keys", Report::num(kWindowSteps * kBlocks * 100));
  rep.info("checkpoint_every_steps", Report::num(kCheckpointEvery));
  rep.info("live_steps", Report::num(static_cast<double>(live_steps)));

  SpanLog wlog(opt.trace, "writer");
  std::vector<std::unique_ptr<SpanLog>> rlogs;
  for (uint64_t r = 0; r < kReaders; ++r) {
    rlogs.push_back(std::make_unique<SpanLog>(opt.trace, "reader" + std::to_string(r)));
  }

  PhaseClock clock(rep);
  // ---- set-up: preload the window, first checkpoint ------------------------------
  const std::string dir = root + "/store";
  std::unique_ptr<Store> store;
  {
    std::vector<double> setup;
    for (int r = 0; r < kSetupReps; ++r) {
      store.reset();
      fs::remove_all(dir);
      Scope s(wlog, "durable.setup");
      Stopwatch sw;
      store = std::make_unique<Store>(vfs, dir, store_settings());
      preload(*store, series);
      const cpma::durable::io::Status st = store->checkpoint();
      setup.push_back(sw.seconds());
      rep.attempted(1);
      if (!st.ok()) rep.fail("setup checkpoint: " + st.message);
    }
    rep.e2e("setup_s", median(setup));
    rep.info("setup_samples_s", samples_json(setup));
  }

  clock.lap("setup");
  // ---- live phase: one writer, two readers -------------------------------------------
  std::atomic<uint64_t> cur_step{kWindowSteps - 1};
  std::atomic<bool> stop{false};
  // Set while the writer times a mid-run reopen; readers park until clear.
  std::atomic<bool> park{false};
  std::atomic<uint64_t> parked{0};
  std::vector<std::vector<double>> read_us(kReaders), age_ms(kReaders);
  std::vector<double> write_ms, insert_rate, checkpoint_s;
  // The writer (this thread) takes worker 0 before the readers start and
  // keeps it for the whole live phase, so the readers' calls never take
  // the pool.
  std::optional<cpma::par::Scheduler::MasterGuard> worker0;
  worker0.emplace(cpma::par::Scheduler::instance());
  rep.check("writer holds worker 0", !worker0->is_worker());
  std::vector<std::thread> readers;
  for (uint64_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      if (pin) pin_to_cpus(r, 1);
      SpanLog& log = *rlogs[r];
      std::vector<uint64_t> probes(kReadProbes), out(kReadScanLen);
      for (uint64_t q = 0; !stop.load(std::memory_order_relaxed); ++q) {
        if (park.load(std::memory_order_acquire)) {
          parked.fetch_add(1);
          while (park.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
          parked.fetch_sub(1);
        }
        const uint64_t now = cur_step.load(std::memory_order_acquire);
        // Window steps whose runs have all arrived and none expired.
        const uint64_t lo = now - kWindowSteps + 1 + kMaxLag;
        const uint64_t span = now - kMaxLag - lo + 1;
        auto h = [&](uint64_t i) {
          return cpma::util::hash64(opt.seed ^ cpma::util::hash64((r << 56) ^ (q << 12) ^ i));
        };
        for (uint64_t i = 0; i < kReadProbes; ++i) {
          const uint64_t x = h(i), t = lo + x % span, b = (x >> 20) % kBlocks;
          probes[i] = (i & 1) ? Series::base(t, b) + kAbsentFrom +
                                    (x >> 40) % (kBlockStride - kAbsentFrom)
                              : Series::base(t, b) + (x >> 40) % series.len(t, b);
        }
        std::sort(probes.begin(), probes.end());
        const uint64_t x = h(kReadProbes), t = lo + x % span, b = (x >> 20) % kBlocks;
        const uint64_t start = Series::base(t, b) + (x >> 40) % series.len(t, b);
        uint64_t n = 0;
        std::vector<uint64_t> bits;
        Stopwatch sw;
        {
          Scope req(log, "serving.request", q);
          Store::Snapshot snap = [&] {
            Scope s(log, "serving.snapshot", q);
            return store->snapshot();
          }();
          age_ms[r].push_back(snap.age_ns() * 1e-6);
          {
            Scope s(log, "serving.has_batch", q);
            bits = snap.has_batch(probes.data(), kReadProbes);
          }
          {
            Scope s(log, "serving.map_range_length", q);
            snap.map_range_length([&](uint64_t k) { out[n++] = k; }, start, kReadScanLen);
          }
        }
        read_us[r].push_back(sw.ns() * 1e-3);
        // Absent-class probes must miss: no hit may name a key that was
        // never generated.
        uint64_t bad = check::forbidden_hits(bits.data(), probes.data(), kReadProbes,
                                     [&](uint64_t k) { return !series.generated(k); });
        bad += check::scan_invariant_violations(
            out.data(), n, start, kReadScanLen,
            [&](uint64_t k) { return series.generated(k); });
        rep.check("reader response invariants", bad);
      }
    });
  }

  const cpma::pma::BatchPhaseTimes phases0 = store->serving().store().batch_phase_times();
  const cpma::pma::ShardRouterTimes router0 = store->serving().store().router_times();
  const cpma::serve::ServingStats serving0 = store->serving().stats();
  const cpma::durable::DurableStats durable0 = store->stats();
  uint64_t logged_keys = 0, retired_max = 0;
  uint64_t last_step = kWindowSteps - 1;

  // One timed reopen of the store files at `path`, a crash image of the
  // window after step `step`; the recovered state is checked exactly. Most
  // of a reopen runs on the calling thread, so with the readers parked the
  // k-th reopen moves it to CPU k mod nproc: the reopens then sample every
  // CPU's speed state rather than those of the writer's two.
  std::vector<double> recovery;
  cpma::durable::RecoveryReport rr{};
  auto reopen = [&](const std::string& path, uint64_t step) {
    if (pin) pin_to_cpus(recovery.size() % hardware_threads(), 1);
    Stopwatch sw;
    std::unique_ptr<Store> back;
    {
      Scope s(wlog, "durable.recover", step);
      back = std::make_unique<Store>(vfs, path, store_settings());
    }
    recovery.push_back(sw.seconds());
    if (pin) pin_to_cpus(hardware_threads() - kPool, kPool);
    rr = back->recovery_report();
    rep.check("recovered state", contents_mismatches(back->snapshot(), series.expected(step)));
  };
  for (uint64_t t = kWindowSteps; t < kWindowSteps + live_steps; ++t) {
    std::vector<uint64_t> in = series.arrivals(t);
    std::vector<uint64_t> out = series.step_keys(t - kWindowSteps);
    const uint64_t n_in = in.size(), n_out = out.size();
    uint64_t added = 0, gone = 0;
    cpma::durable::io::Status ckpt;
    Stopwatch sw;
    {
      Scope step(wlog, "durable.step", t);
      {
        Scope s(wlog, "durable.insert_batch", t);
        Stopwatch si;
        added = store->insert_batch(std::move(in));
        insert_rate.push_back(n_in / si.seconds());
      }
      {
        Scope s(wlog, "durable.remove_batch", t);
        gone = store->remove_batch(std::move(out));
      }
      if (t % kCheckpointEvery == 0) {
        Scope s(wlog, "durable.checkpoint", t);
        Stopwatch sc;
        ckpt = store->checkpoint();
        checkpoint_s.push_back(sc.seconds());
      }
    }
    write_ms.push_back(sw.ns() * 1e-6);
    cur_step.store(t, std::memory_order_release);
    last_step = t;
    logged_keys += n_in + n_out;
    retired_max = std::max(retired_max, store->serving().stats().retired_views);
    rep.attempted(2);
    if (added != n_in) rep.fail("insert_batch added " + std::to_string(added));
    if (gone != n_out) rep.fail("remove_batch removed " + std::to_string(gone));
    if (!ckpt.ok()) rep.fail("checkpoint: " + ckpt.message);

    // Mid-run reopen, kCheckpointEvery - 1 steps after a checkpoint like
    // the final one: sync the WAL, park the readers, reopen a copy.
    if ((t + 1 - kWindowSteps + kCheckpointEvery) % kReopenEvery == 0 &&
        t + 1 < kWindowSteps + live_steps) {
      const cpma::durable::io::Status st = store->sync_wal();
      rep.attempted(1);
      if (!st.ok()) rep.fail("sync_wal: " + st.message);
      park.store(true, std::memory_order_release);
      while (parked.load() < kReaders) std::this_thread::yield();
      const std::string copy = root + "/reopen";
      fs::remove_all(copy);
      fs::copy(dir, copy, fs::copy_options::recursive);
      reopen(copy, t);
      fs::remove_all(copy);
      park.store(false, std::memory_order_release);
    }
  }
  stop.store(true);
  for (std::thread& th : readers) th.join();
  worker0.reset();

  clock.lap("live");
  const cpma::pma::BatchPhaseTimes phases =
      store->serving().store().batch_phase_times() - phases0;
  const cpma::pma::ShardRouterTimes router =
      store->serving().store().router_times() - router0;
  const cpma::serve::ServingStats serving = store->serving().stats() - serving0;
  const cpma::durable::DurableStats durable = store->stats() - durable0;

  std::vector<double> reads;
  for (auto& v : read_us) reads.insert(reads.end(), v.begin(), v.end());
  std::vector<double> ages;
  for (auto& v : age_ms) ages.insert(ages.end(), v.begin(), v.end());
  rep.e2e("insert_keys_per_s", median(insert_rate));
  rep.e2e("write_p50_ms", quantile(write_ms, 0.5));
  rep.layer("write_p99_ms", quantile(write_ms, 0.99));
  // The read median is a per-layer metric, not an end-to-end one: a
  // reader's CPU switches between a fast state and one ~1.6x slower for
  // seconds at a time (with the writer stopped too, and with the codec
  // pinned), and the median of all requests jumps from one state to the
  // other from run to run. The p99 sits in the slow state's tail and holds.
  rep.layer("read_p50_us", quantile(reads, 0.5));
  rep.e2e("read_p99_us", quantile(reads, 0.99));
  rep.info("write_samples", Report::num(static_cast<double>(write_ms.size())));
  rep.info("write_samples_beyond_p99",
           Report::num(static_cast<double>(samples_beyond(write_ms, 0.99))));
  rep.info("read_samples", Report::num(static_cast<double>(reads.size())));
  rep.info("read_p50_us", Report::num(quantile(reads, 0.5)));
  rep.info("read_samples_beyond_p99",
           Report::num(static_cast<double>(samples_beyond(reads, 0.99))));

  // Refused or vetoed ops and WAL append errors are failed ops.
  uint64_t rejected = 0;
  for (const auto& q : store->serving().serving_stats()) rejected += q.rejected;
  rep.fail("serving rejected ops", rejected);
  rep.fail("serving vetoed ops", serving.vetoed_ops);
  rep.fail("WAL append errors", durable.wal_append_errors);

  // ---- final state, then crash and recover --------------------------------------------
  const std::vector<uint64_t> want = series.expected(last_step);
  const uint64_t size_now = store->size();
  rep.e2e("bytes_per_key",
          static_cast<double>(store->serving().store().get_size()) / size_now);
  rep.info("resident_bytes",
           Report::num(static_cast<double>(store->serving().store().get_size())));
  rep.info("resident_over_l3",
           Report::num(static_cast<double>(store->serving().store().get_size()) / kL3Bytes));
  {
    const cpma::durable::io::Status st = store->sync_wal();
    rep.attempted(1);
    if (!st.ok()) rep.fail("sync_wal: " + st.message);
    store->serving().flush();
    rep.check("final state", contents_mismatches(store->snapshot(), want));
  }
  if (opt.trace) {
    const Store::Snapshot snap = store->snapshot();
    size_t cap = 0;
    for (uint64_t s = 0; s < snap.view().num_shards(); ++s) {
      cap = std::max<size_t>(cap, snap.view().shard_ref(s)->leaf_bytes());
    }
    probe_codec<Engine::leaf_policy>(snap.view(), cap, rep);
    probe_leaf_scan(snap.view(), rep);
    report_sharded(store->serving().store(), router, rep);
  }
  clock.lap("final_check");
  store.reset();  // no flush, no checkpoint: a crash to the library
  reopen(dir, last_step);
  // The mean: like the read latency, a reopen runs in the fast or the slow
  // CPU state, and the median of the reopens jumps between the two.
  rep.layer("recovery_s", mean(recovery));
  rep.info("recovery_samples_s", samples_json(recovery));
  clock.lap("recovery");

  // ---- per-layer detail --------------------------------------------------------------
  cpma::pma::BatchPhaseTimes engine_only = phases;
  engine_only.route_ns -= std::min(engine_only.route_ns, router.route_ns);
  report_engine_phases(engine_only, rep);
  rep.layer("serving.publishes", static_cast<double>(serving.publishes));
  rep.layer("serving.shard_copies", static_cast<double>(serving.shard_copies));
  rep.layer("serving.copies_per_publish",
            serving.publishes ? static_cast<double>(serving.shard_copies) / serving.publishes : 0.0);
  rep.layer("serving.publish_s", serving.publish_ns * 1e-9);
  rep.layer("serving.apply_s", serving.apply_ns * 1e-9);
  rep.layer("serving.snapshot_age_p99_ms", quantile(ages, 0.99));
  rep.layer("serving.retired_views_max", static_cast<double>(retired_max));
  rep.layer("serving.rejected_ops", static_cast<double>(rejected));
  rep.layer("serving.vetoed_ops", static_cast<double>(serving.vetoed_ops));
  rep.layer("durable.wal_bytes_per_key",
            logged_keys ? static_cast<double>(durable.wal_bytes) / logged_keys : 0.0);
  rep.layer("durable.wal_records", static_cast<double>(durable.wal_records));
  rep.layer("durable.wal_syncs", static_cast<double>(durable.wal_syncs));
  rep.layer("durable.wal_append_errors", static_cast<double>(durable.wal_append_errors));
  rep.layer("durable.checkpoint_p50_s", median(checkpoint_s));
  rep.layer("durable.checkpoint_bytes_per_key",
            static_cast<double>(durable.checkpoint_bytes) / (kWindowSteps * kBlocks * 100));
  const double recovered_keys =
      static_cast<double>(rr.checkpoint_keys + rr.keys_replayed);
  rep.layer("durable.recovery_keys_per_s", recovered_keys / mean(recovery));
  rep.layer("durable.records_replayed", static_cast<double>(rr.records_replayed));
  rep.layer("durable.recovery_bytes_scanned", static_cast<double>(rr.bytes_scanned));

  std::vector<const SpanLog*> logs{&wlog};
  for (auto& l : rlogs) logs.push_back(l.get());
  if (opt.trace) {
    std::map<std::string, SpanStats> sum = summarize(logs);
    rep.layer("serving.pin_p50_ns", quantile(sum["serving.snapshot"].durations_ns, 0.5));
    // The readers call the pinned snapshot, so these are serving-layer
    // times (sharded and engine work included); engine.has_batch_s and
    // engine.map_range_length_s come from set_uniform's bare engine.
    rep.layer("serving.has_batch_s", sum["serving.has_batch"].total_s);
    rep.layer("serving.map_range_length_s", sum["serving.map_range_length"].total_s);

    // The cost ladder: each row adds one layer on top of the row before.
    const uint64_t steps = std::min<uint64_t>(kLadderSteps, live_steps);
    cpma::par::Scheduler::MasterGuard worker0(cpma::par::Scheduler::instance());
    {
      Engine e;
      rep.layer("ladder.engine_s", ladder_row(e, series, steps));
    }
    {
      cpma::pma::ShardedPMA<Engine> s(serving_settings().sharded);
      rep.layer("ladder.sharded_s", ladder_row(s, series, steps));
    }
    {
      cpma::serve::ServingPMA<Engine> s(serving_settings());
      rep.layer("ladder.serving_s", ladder_row(s, series, steps));
    }
    {
      const std::string ldir = root + "/ladder";
      fs::remove_all(ldir);
      Store s(vfs, ldir, store_settings());
      rep.layer("ladder.durable_s", ladder_row(s, series, steps));
    }
  }
  clock.lap("layers");
  report_spans(opt, rep, logs);
  fs::remove_all(root);
}

}  // namespace perfbench
