// Tests for the fork-join scheduler and parallel primitives: correctness of
// fork2, parallel_for, reduce, scan, merge, sort, worker-local storage, and
// the sorted-sequence helpers under real parallelism, plus the engine's
// sibling-root redistribution on per-worker arenas.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "parallel/merge.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/seq_ops.hpp"
#include "parallel/sort.hpp"
#include "parallel/worker_local.hpp"
#include "pma/cpma.hpp"
#include "util/random.hpp"

namespace par = cpma::par;
using cpma::util::Rng;

TEST(Scheduler, Fork2RunsBothBranches) {
  std::atomic<int> ran{0};
  par::fork2([&] { ran.fetch_add(1); }, [&] { ran.fetch_add(2); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(Scheduler, NestedForkJoin) {
  std::atomic<int> ran{0};
  par::fork2(
      [&] {
        par::fork2([&] { ran.fetch_add(1); }, [&] { ran.fetch_add(10); });
      },
      [&] {
        par::fork2([&] { ran.fetch_add(100); }, [&] { ran.fetch_add(1000); });
      });
  EXPECT_EQ(ran.load(), 1111);
}

TEST(Scheduler, DeepRecursionSum) {
  // Recursive fork tree computing a sum; exercises steal-while-wait joins.
  std::function<uint64_t(uint64_t, uint64_t)> sum_range =
      [&](uint64_t lo, uint64_t hi) -> uint64_t {
    if (hi - lo <= 64) {
      uint64_t s = 0;
      for (uint64_t i = lo; i < hi; ++i) s += i;
      return s;
    }
    uint64_t mid = lo + (hi - lo) / 2, left = 0, right = 0;
    par::fork2([&] { left = sum_range(lo, mid); },
               [&] { right = sum_range(mid, hi); });
    return left + right;
  };
  const uint64_t n = 1 << 18;
  EXPECT_EQ(sum_range(0, n), n * (n - 1) / 2);
}

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  const uint64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  par::parallel_for(0, n, [&](uint64_t i) { hits[i].fetch_add(1); });
  for (uint64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, EmptyRange) {
  int ran = 0;
  par::parallel_for(5, 5, [&](uint64_t) { ++ran; });
  EXPECT_EQ(ran, 0);
}

TEST(ParallelFor, ExplicitGrainOne) {
  std::atomic<uint64_t> total{0};
  par::parallel_for(0, 1000, [&](uint64_t i) { total.fetch_add(i); }, 1);
  EXPECT_EQ(total.load(), 999u * 1000 / 2);
}

TEST(Reduce, SumMatchesSerial) {
  const uint64_t n = 1 << 20;
  uint64_t got = par::parallel_sum<uint64_t>(
      0, n, [](uint64_t i) { return i * 3 + 1; });
  uint64_t want = 0;
  for (uint64_t i = 0; i < n; ++i) want += i * 3 + 1;
  EXPECT_EQ(got, want);
}

TEST(Reduce, MaxWithCustomCombine) {
  std::vector<uint64_t> v(100000);
  Rng r(3);
  for (auto& x : v) x = r.next();
  uint64_t got = par::parallel_reduce<uint64_t>(
      0, v.size(), 0, [&](uint64_t i) { return v[i]; },
      [](uint64_t a, uint64_t b) { return std::max(a, b); });
  EXPECT_EQ(got, *std::max_element(v.begin(), v.end()));
}

TEST(Scan, ExclusiveScanMatchesSerial) {
  for (uint64_t n : {0ull, 1ull, 5ull, 4096ull, 100000ull}) {
    std::vector<uint64_t> v(n), want(n);
    Rng r(n + 1);
    for (auto& x : v) x = r.next() % 100;
    uint64_t acc = 0;
    for (uint64_t i = 0; i < n; ++i) {
      want[i] = acc;
      acc += v[i];
    }
    uint64_t total = par::exclusive_scan_inplace(v);
    EXPECT_EQ(total, acc);
    EXPECT_EQ(v, want);
  }
}

TEST(Merge, MatchesStdMerge) {
  Rng r(17);
  for (uint64_t na : {0ull, 10ull, 1000ull, 50000ull}) {
    for (uint64_t nb : {0ull, 7ull, 30000ull}) {
      std::vector<uint64_t> a(na), b(nb);
      for (auto& x : a) x = r.next() % 100000;
      for (auto& x : b) x = r.next() % 100000;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      std::vector<uint64_t> got(na + nb), want(na + nb);
      par::parallel_merge(a.data(), na, b.data(), nb, got.data(), 64);
      std::merge(a.begin(), a.end(), b.begin(), b.end(), want.begin());
      EXPECT_EQ(got, want);
    }
  }
}

TEST(Sort, MatchesStdSort) {
  Rng r(23);
  for (uint64_t n : {0ull, 1ull, 2ull, 100ull, 10000ull, 300000ull}) {
    std::vector<uint64_t> v(n);
    for (auto& x : v) x = r.next();
    std::vector<uint64_t> want = v;
    std::sort(want.begin(), want.end());
    par::parallel_sort(v.data(), n, 512);
    EXPECT_EQ(v, want);
  }
}

TEST(Sort, AlreadySortedAndReversed) {
  std::vector<uint64_t> v(100000);
  std::iota(v.begin(), v.end(), 0);
  std::vector<uint64_t> want = v;
  par::parallel_sort(v.data(), v.size(), 512);
  EXPECT_EQ(v, want);
  std::reverse(v.begin(), v.end());
  par::parallel_sort(v.data(), v.size(), 512);
  EXPECT_EQ(v, want);
}

TEST(WorkerLocal, AccumulatesAcrossWorkers) {
  par::WorkerLocal<std::vector<uint64_t>> wl;
  const uint64_t n = 100000;
  par::parallel_for(0, n, [&](uint64_t i) { wl.local().push_back(i); });
  auto all = wl.combined<std::vector<uint64_t>>();
  ASSERT_EQ(all.size(), n);
  std::sort(all.begin(), all.end());
  for (uint64_t i = 0; i < n; ++i) EXPECT_EQ(all[i], i);
}

TEST(SeqOps, DedupeSortedSmallAndLarge) {
  for (uint64_t n : {0ull, 1ull, 100ull, 100000ull}) {
    Rng r(n + 5);
    std::vector<uint64_t> v(n);
    for (auto& x : v) x = r.next() % (n / 2 + 1);
    std::sort(v.begin(), v.end());
    std::vector<uint64_t> want = v;
    want.erase(std::unique(want.begin(), want.end()), want.end());
    par::dedupe_sorted(v);
    EXPECT_EQ(v, want);
  }
}

TEST(SeqOps, MergeDedupe) {
  std::vector<uint64_t> a{1, 3, 5, 7}, b{3, 4, 5, 9};
  auto got = par::merge_dedupe(a, b);
  std::vector<uint64_t> want{1, 3, 4, 5, 7, 9};
  EXPECT_EQ(got, want);
}

TEST(SeqOps, SortedDifferenceMatchesStdOnUniqueInputs) {
  // Library contract: `a` sorted unique (PMA contents), `b` sorted unique.
  Rng r(31);
  for (uint64_t n : {0ull, 100ull, 100000ull}) {
    std::vector<uint64_t> a(n), b(n / 2);
    for (auto& x : a) x = r.next() % (n + 1);
    for (auto& x : b) x = r.next() % (n + 1);
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    auto got = par::sorted_difference(a, b);
    std::vector<uint64_t> want;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(want));
    EXPECT_EQ(got, want);
  }
}

TEST(SeqOps, MergeUniqueMatchesSetUnion) {
  Rng r(41);
  for (uint64_t na : {0ull, 1ull, 100ull, 200000ull}) {
    for (uint64_t nb : {0ull, 7ull, 150000ull}) {
      std::vector<uint64_t> a(na), b(nb);
      for (auto& x : a) x = r.next() % (na + nb + 1);
      for (auto& x : b) x = r.next() % (na + nb + 1);
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());  // a must be unique
      std::sort(b.begin(), b.end());                      // b may have dups
      cpma::util::uvector<uint64_t> got;
      par::merge_unique(a.data(), a.size(), b.data(), nb, got);
      std::set<uint64_t> want_set(a.begin(), a.end());
      want_set.insert(b.begin(), b.end());
      std::vector<uint64_t> want(want_set.begin(), want_set.end());
      ASSERT_EQ(std::vector<uint64_t>(got.begin(), got.end()), want)
          << "na=" << na << " nb=" << nb;
    }
  }
}

TEST(SeqOps, MergeUniqueDuplicateRunsAtChunkBoundaries) {
  // All b-values equal: exercises the duplicate-skip loops and boundary
  // routing in the chunked merge.
  std::vector<uint64_t> a(100000);
  for (size_t i = 0; i < a.size(); ++i) a[i] = i * 2;
  std::vector<uint64_t> b(5000, 99999);  // odd: not in a
  cpma::util::uvector<uint64_t> got;
  par::merge_unique(a.data(), a.size(), b.data(), b.size(), got);
  EXPECT_EQ(got.size(), a.size() + 1);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(SeqOps, SortedDifferenceRemovesAllOccurrences) {
  // With duplicates in `a`, every occurrence matching `b` is dropped (unlike
  // std::set_difference's multiset counting).
  std::vector<uint64_t> a{1, 2, 2, 3, 3, 3, 4};
  std::vector<uint64_t> b{2, 3};
  auto got = par::sorted_difference(a, b);
  EXPECT_EQ(got, (std::vector<uint64_t>{1, 4}));
}

TEST(Scheduler, SetNumWorkersChangesPoolSize) {
  par::Scheduler::set_num_workers(2);
#if defined(CPMA_FORCE_SERIAL)
  // CPMA_PARALLEL=OFF builds clamp every request to one worker.
  EXPECT_EQ(par::Scheduler::instance().num_workers(), 1u);
#else
  EXPECT_EQ(par::Scheduler::instance().num_workers(), 2u);
#endif
  std::atomic<uint64_t> total{0};
  par::parallel_for(0, 10000, [&](uint64_t i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 9999u * 10000 / 2);
  par::Scheduler::set_num_workers(0);  // clamps to 1
  EXPECT_EQ(par::Scheduler::instance().num_workers(), 1u);
  total = 0;
  par::parallel_for(0, 1000, [&](uint64_t i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 999u * 1000 / 2);
  par::Scheduler::set_num_workers(std::thread::hardware_concurrency());
}

TEST(Scheduler, StressManySmallParallelLoops) {
  // Repeated small regions exercise pool wake/sleep transitions.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> c{0};
    par::parallel_for(0, 64, [&](uint64_t) { c.fetch_add(1); }, 1);
    ASSERT_EQ(c.load(), 64);
  }
}

TEST(Scheduler, NoLostWakeupOnIdleToWorkTransition) {
  // Regression: push_local once raced notify_work against the worker's
  // sleep-decision (sleepers_ incremented after the empty check, notify
  // issued without the sleep mutex), so a job pushed into an all-idle pool
  // could wait out a full sleep timeout before running. Drive many
  // idle->work transitions with deliberate idle gaps and require prompt
  // completion: under the fixed Dekker handshake each region finishes in
  // microseconds; a lost wakeup costs a visible timeout per region.
  par::Scheduler::set_num_workers(4);
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < 300; ++round) {
    // Let every worker drain and go to sleep.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    std::atomic<int> c{0};
    par::parallel_for(0, 8, [&](uint64_t) { c.fetch_add(1); }, 1);
    ASSERT_EQ(c.load(), 8) << "round " << round;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // 300 * 200us idle gaps ~ 60ms of deliberate sleeping; generous headroom
  // for CI noise. Systematic lost wakeups (1ms timeout x 300 rounds) blow
  // well past this.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  par::Scheduler::set_num_workers(std::thread::hardware_concurrency());
}

TEST(Scheduler, ParticipantIdsAreDenseUniqueAndRecycled) {
  const unsigned mine = par::Scheduler::participant_id();
  EXPECT_LT(mine, par::Scheduler::kMaxParticipants);
  // Stable within a thread.
  EXPECT_EQ(par::Scheduler::participant_id(), mine);

  // Concurrent threads get distinct ids.
  const int n = 16;
  std::vector<unsigned> ids(n);
  {
    std::vector<std::thread> threads;
    std::atomic<int> ready{0};
    for (int t = 0; t < n; ++t) {
      threads.emplace_back([&, t]() {
        ids[t] = par::Scheduler::participant_id();
        ready.fetch_add(1);
        // Hold the slot until every thread has claimed one, so ids are
        // provably concurrent-distinct (no recycling during the overlap).
        while (ready.load() < n) std::this_thread::yield();
      });
    }
    for (auto& th : threads) th.join();
  }
  std::set<unsigned> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(n));
  for (unsigned id : ids) {
    EXPECT_LT(id, par::Scheduler::kMaxParticipants);
    EXPECT_NE(id, mine);
  }

  // Exited threads' slots are recycled: another wave must fit inside the
  // union of the first wave's ids plus at most n fresh ones, never growing
  // without bound.
  std::vector<unsigned> second(n);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < n; ++t) {
      threads.emplace_back(
          [&, t]() { second[t] = par::Scheduler::participant_id(); });
      threads.back().join();
    }
  }
  for (unsigned id : second) {
    EXPECT_LT(id, mine + 2 * n + 2) << "slots not recycled";
  }
}

TEST(Scheduler, SiblingTasksWithInnerParallelism) {
  // The sharded router's shape: S sibling top-level tasks (grain 1), each
  // running its own parallel_for / parallel_sum / parallel_sort underneath.
  // A worker suspended at one sibling's join must steal and complete other
  // siblings' subtasks without corrupting either computation.
  const uint64_t siblings = 8;
  std::vector<uint64_t> sums(siblings, 0);
  std::vector<std::vector<uint64_t>> sorted(siblings);
  par::parallel_for(0, siblings, [&](uint64_t s) {
    const uint64_t n = 20'000 + 1'000 * s;
    sums[s] = par::parallel_sum<uint64_t>(
        0, n, [](uint64_t i) { return i; }, 512);
    Rng r(s + 1);
    std::vector<uint64_t>& v = sorted[s];
    v.resize(n);
    for (auto& x : v) x = r.next();
    par::parallel_sort(v.data(), v.size(), 1024);
  }, 1);
  for (uint64_t s = 0; s < siblings; ++s) {
    const uint64_t n = 20'000 + 1'000 * s;
    EXPECT_EQ(sums[s], (n - 1) * n / 2) << "sibling " << s;
    EXPECT_TRUE(std::is_sorted(sorted[s].begin(), sorted[s].end()))
        << "sibling " << s;
    EXPECT_EQ(sorted[s].size(), n);
  }
}

TEST(Scheduler, NestedSiblingBatchesDisjointState) {
  // Sibling tasks each mutate their own accumulation buffers through nested
  // parallel loops — the isolation contract the per-shard BatchContexts
  // rely on.
  const uint64_t siblings = 6;
  std::vector<std::vector<uint64_t>> hist(siblings);
  par::parallel_for(0, siblings, [&](uint64_t s) {
    auto& h = hist[s];
    h.assign(64, 0);
    for (int round = 0; round < 4; ++round) {
      std::vector<uint64_t> local(64, 0);
      par::parallel_for(0, 64, [&](uint64_t b) {
        uint64_t acc = 0;
        for (uint64_t i = 0; i < 1'000; ++i) acc += (b * 1'000 + i) % 64;
        local[b] = acc;
      }, 1);
      for (uint64_t b = 0; b < 64; ++b) h[b] += local[b];
    }
  }, 1);
  for (uint64_t s = 1; s < siblings; ++s) {
    ASSERT_EQ(hist[s], hist[0]) << "sibling " << s << " diverged";
  }
}

TEST(ConcurrentRedistribute, DenseAdaptiveRegionsNeverShareAnArena) {
  // Dense runs make ACPMA leaves bitmap-encoded at thousands of keys each,
  // so a redistribution region of a few 512-byte leaves (small enough for
  // the per-worker arena by bytes) can carry more keys than spread handles
  // without forking. Every island grows at its tail in each batch, giving
  // many sibling roots per batch; on 4 workers a root that forked while
  // holding its worker's arena would let a stolen sibling overwrite it.
  par::Scheduler::set_num_workers(4);
  cpma::ACPMA s;
  std::set<uint64_t> ref;
  constexpr uint64_t kIslands = 32;
  std::vector<uint64_t> tail(kIslands);  // next key to append per island
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < kIslands; ++i) {
    const uint64_t base = (i + 1) << 32;
    for (uint64_t j = 0; j < 6000; ++j) batch.push_back(base + j);
    tail[i] = base + 6000;
  }
  s.insert_batch(batch);
  ref.insert(batch.begin(), batch.end());
  Rng r(11);
  for (int round = 0; round < 24; ++round) {
    batch.clear();
    for (uint64_t i = 0; i < kIslands; ++i) {
      const uint64_t len = 200 + r.next_below(600);
      for (uint64_t j = 0; j < len; ++j) batch.push_back(tail[i] + j);
      tail[i] += len + r.next_below(3) * 64;  // sometimes skip a window
    }
    s.insert_batch(batch);
    ref.insert(batch.begin(), batch.end());
    if (round % 4 == 3) {
      // Carve a run out of every island's middle: remove-side roots.
      batch.clear();
      for (uint64_t i = 0; i < kIslands; ++i) {
        const uint64_t start = ((i + 1) << 32) + r.next_below(4000);
        for (uint64_t j = 0; j < 700; ++j) batch.push_back(start + j);
      }
      s.remove_batch(batch);
      for (uint64_t k : batch) ref.erase(k);
    }
    std::string err;
    ASSERT_TRUE(s.check_invariants(&err)) << "round " << round << ": " << err;
    ASSERT_EQ(s.size(), ref.size()) << "round " << round;
  }
  std::vector<uint64_t> got;
  got.reserve(ref.size());
  s.map([&](uint64_t k) { got.push_back(k); });
  EXPECT_TRUE(std::equal(got.begin(), got.end(), ref.begin(), ref.end()));
  par::Scheduler::set_num_workers(std::thread::hardware_concurrency());
}
