// Shared read paths over a sharded composition: the flattened-leaf API and
// the splitter-partitioned batch reads.
//
// The engine exposes an "advanced iteration" surface — num_leaves /
// leaf_element_count / scan_leaf_positions / scan_leaf_keys /
// map_from_position — that the graph layer's vertex index is built on
// (graph/vertex_index.hpp). A sharded composition (ShardedPMA, or the
// serving layer's immutable SnapshotView) is S engines whose key ranges
// are disjoint and ascending, so its leaves form one global sequence:
// shard 0's leaves, then shard 1's, and so on, still in key order.
//
// FlatLeafOps implements that surface once for anything exposing
// `num_shards()` and `shard(s) -> const Engine&`; ShardedPMA and
// SnapshotView delegate their hooks here. A flat Position is
// (shard, engine Position); like engine positions, it is invalidated by
// ANY update — callers (the vertex index) rebuild after batches, or hold
// an epoch pin over an immutable view.
//
// locate() walks the shard prefix per call — O(S) with S <= 64, noise next
// to the leaf scan each call performs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "parallel/scheduler.hpp"

namespace cpma::pma {

template <typename Engine>
struct FlatPosition {
  uint64_t shard = 0;
  typename Engine::Position inner{};
};

template <typename C, typename Engine>
struct FlatLeafOps {
  using Position = FlatPosition<Engine>;

  static uint64_t num_leaves(const C& c) {
    uint64_t total = 0;
    for (uint64_t s = 0; s < c.num_shards(); ++s) {
      total += c.shard(s).num_leaves();
    }
    return total;
  }

  // Global leaf l -> (shard, local leaf).
  static std::pair<uint64_t, uint64_t> locate(const C& c, uint64_t l) {
    uint64_t s = 0;
    while (l >= c.shard(s).num_leaves()) {
      l -= c.shard(s).num_leaves();
      ++s;
    }
    return {s, l};
  }

  static uint64_t leaf_element_count(const C& c, uint64_t l) {
    const auto sl = locate(c, l);
    return c.shard(sl.first).leaf_element_count(sl.second);
  }

  template <typename F>
  static void scan_leaf_positions(const C& c, uint64_t l, F&& f) {
    const auto sl = locate(c, l);
    c.shard(sl.first).scan_leaf_positions(
        sl.second, [&](typename Engine::Position pos, uint64_t key) {
          f(Position{sl.first, pos}, key);
        });
  }

  template <typename F>
  static void scan_leaf_keys(const C& c, uint64_t l, F&& f) {
    const auto sl = locate(c, l);
    c.shard(sl.first).scan_leaf_keys(sl.second, f);
  }

  // Iterates keys from `pos` (inclusive) while f(key) returns true,
  // continuing across leaf AND shard boundaries (shard ranges ascend, so
  // the concatenation is global key order).
  template <typename F>
  static void map_from_position(const C& c, Position pos, F&& f) {
    bool more = true;
    auto wrapped = [&](uint64_t key) {
      more = f(key);
      return more;
    };
    c.shard(pos.shard).map_from_position(pos.inner, wrapped);
    for (uint64_t s = pos.shard + 1; more && s < c.num_shards(); ++s) {
      const Engine& e = c.shard(s);
      const uint64_t leaves = e.num_leaves();
      for (uint64_t l = 0; l < leaves; ++l) {
        if (auto first = e.leaf_first_position(l)) {
          e.map_from_position(*first, wrapped);
          break;  // the engine continues to its own end internally
        }
      }
    }
  }
};

// bounds[i] = first index of the sorted `batch` routed to shard i (shard
// i + 1's range starts at splitters[i], inclusive); bounds[S] = n. Same
// exponential-gallop-then-binary-search idiom as the engine's run_end:
// gallop from the previous boundary, bounded search over the last gap.
inline void partition_by_splitters(const std::vector<uint64_t>& splitters,
                                   const uint64_t* batch, uint64_t n,
                                   std::vector<uint64_t>& bounds) {
  bounds.assign(splitters.size() + 2, n);
  bounds[0] = 0;
  uint64_t pos = 0;
  for (uint64_t i = 0; i < splitters.size(); ++i) {
    const uint64_t sp = splitters[i];
    if (pos < n && batch[pos] < sp) {
      uint64_t lo = pos, step = 1;
      while (lo + step < n && batch[lo + step] < sp) {
        lo += step;
        step *= 2;
      }
      uint64_t hi = std::min(lo + step, n);
      pos = static_cast<uint64_t>(
          std::lower_bound(batch + lo, batch + hi, sp) - batch);
    }
    bounds[i + 1] = pos;
  }
}

// Engine batch reads fanned out over a sharded composition C (anything
// exposing num_shards(), shard(s) -> const Engine& and splitters()): sorted
// queries are partitioned against the splitters and each shard's slice runs
// as a sibling task with the engine's full inner parallelism underneath.
// All slices write one shared output: bitmap words via relaxed atomic ORs
// (the engine's bit protocol), out[] slots per-query exclusive.
template <typename C>
struct ShardedBatchReads {
  static void has_batch(const C& c, const uint64_t* keys, uint64_t n,
                        uint64_t* bits, uint64_t bit_base) {
    if (n == 0) return;
    std::vector<uint64_t> bounds;
    partition_by_splitters(c.splitters(), keys, n, bounds);
    par::parallel_for(0, c.num_shards(), [&](uint64_t s) {
      const uint64_t b = bounds[s], e = bounds[s + 1];
      if (e > b) c.shard(s).has_batch(keys + b, e - b, bits, bit_base + b);
    }, 1);
  }

  // Per-shard successor_batch, then one right-to-left stitch pass: queries
  // whose slice shard holds no key >= them (the slice's unfound SUFFIX —
  // slices are sorted) share one answer, the next nonempty shard's minimum.
  static void successor_batch(const C& c, const uint64_t* keys, uint64_t n,
                              uint64_t* out, uint64_t* found,
                              uint64_t bit_base) {
    if (n == 0) return;
    const uint64_t s_count = c.num_shards();
    std::vector<uint64_t> bounds;
    partition_by_splitters(c.splitters(), keys, n, bounds);
    par::parallel_for(0, s_count, [&](uint64_t s) {
      const uint64_t b = bounds[s], e = bounds[s + 1];
      if (e > b) {
        c.shard(s).successor_batch(keys + b, e - b, out + b, found,
                                   bit_base + b);
      }
    }, 1);
    // The parallel_for above joined, so the found bits are plainly readable.
    std::optional<uint64_t> next_min;
    for (uint64_t s = s_count; s-- > 0;) {
      if (next_min) {
        for (uint64_t q = bounds[s + 1]; q-- > bounds[s];) {
          const uint64_t bit = bit_base + q;
          if ((found[bit >> 6] >> (bit & 63)) & 1) break;  // found suffix ends
          out[q] = *next_min;
          found[bit >> 6] |= uint64_t{1} << (bit & 63);
        }
      }
      if (auto v = c.shard(s).min()) next_min = v;
    }
  }
};

}  // namespace cpma::pma
