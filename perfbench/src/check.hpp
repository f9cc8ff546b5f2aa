// The answer checker: a reference model that shares no code with the set
// engines (sorted std::vector + std::lower_bound; for graphs, graph::Csr
// with a plain queue BFS and union-find), plus comparison
// functions that count mismatches. Every workload checks its timed answers
// through these, and tests/selftest.cpp proves they catch wrong answers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge.hpp"

namespace perfbench::check {

// ---- sets ----------------------------------------------------------------------

// Sorts `keys` (any 64-bit values) with an MSD bucket pass on the top
// `bits` bits of a `key_bits`-bit space, then std::sort per bucket, on
// `threads` std::threads.
inline void sort_keys(std::vector<uint64_t>& keys, unsigned key_bits,
                      unsigned threads) {
  const unsigned bucket_bits = 16;
  const unsigned shift = key_bits > bucket_bits ? key_bits - bucket_bits : 0;
  const uint64_t nb = uint64_t{1} << bucket_bits;
  auto bucket = [&](uint64_t k) {
    return std::min<uint64_t>(k >> shift, nb - 1);
  };
  std::vector<uint64_t> start(nb + 1, 0);
  for (uint64_t k : keys) ++start[bucket(k) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<uint64_t> out(keys.size());
  std::vector<uint64_t> pos(start.begin(), start.end() - 1);
  for (uint64_t k : keys) out[pos[bucket(k)]++] = k;
  keys.swap(out);
  out = {};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (uint64_t b = t; b < nb; b += threads) {
        std::sort(keys.begin() + start[b], keys.begin() + start[b + 1]);
      }
    });
  }
  for (std::thread& th : pool) th.join();
}

// Sorted, duplicate-free reference set.
class RefSet {
 public:
  RefSet() = default;
  explicit RefSet(std::vector<uint64_t> sorted_unique)
      : keys_(std::move(sorted_unique)) {}

  uint64_t size() const { return keys_.size(); }
  const std::vector<uint64_t>& keys() const { return keys_; }
  bool has(uint64_t k) const {
    return std::binary_search(keys_.begin(), keys_.end(), k);
  }
  // Index of the smallest key >= k (size() when none).
  uint64_t lower(uint64_t k) const {
    return static_cast<uint64_t>(
        std::lower_bound(keys_.begin(), keys_.end(), k) - keys_.begin());
  }

 private:
  std::vector<uint64_t> keys_;
};

// Bit i of a has_batch bitmap against the expected answer for probe i.
template <typename Expected>
uint64_t bitmap_mismatches(const uint64_t* bits, const uint64_t* probes,
                           uint64_t n, Expected&& expected) {
  uint64_t bad = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const bool got = (bits[i >> 6] >> (i & 63)) & 1;
    if (got != expected(probes[i])) ++bad;
  }
  return bad;
}

// Hits of a has_batch bitmap on probes that must miss.
template <typename MustMiss>
uint64_t forbidden_hits(const uint64_t* bits, const uint64_t* probes,
                        uint64_t n, MustMiss&& must_miss) {
  uint64_t bad = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (((bits[i >> 6] >> (i & 63)) & 1) && must_miss(probes[i])) ++bad;
  }
  return bad;
}

// A delivered scan against the exact expected keys: every position that
// differs, plus the length difference.
inline uint64_t scan_mismatches(const uint64_t* got, uint64_t got_n,
                                const uint64_t* want, uint64_t want_n) {
  uint64_t bad = got_n > want_n ? got_n - want_n : want_n - got_n;
  for (uint64_t i = 0; i < std::min(got_n, want_n); ++i) {
    if (got[i] != want[i]) ++bad;
  }
  return bad;
}

// Invariants of a scan read while a writer runs: at most `length` keys,
// strictly ascending, none below `start`, each one a generated key.
template <typename IsGenerated>
uint64_t scan_invariant_violations(const uint64_t* got, uint64_t got_n,
                                   uint64_t start, uint64_t length,
                                   IsGenerated&& generated) {
  uint64_t bad = got_n > length ? got_n - length : 0;
  for (uint64_t i = 0; i < got_n; ++i) {
    if (got[i] < start) ++bad;
    if (i > 0 && got[i] <= got[i - 1]) ++bad;
    if (!generated(got[i])) ++bad;
  }
  return bad;
}

// ---- graphs --------------------------------------------------------------------

using cpma::graph::vertex_t;

inline std::vector<int32_t> ref_bfs(const cpma::graph::Csr& g, vertex_t src) {
  std::vector<int32_t> depth(g.num_vertices(), -1);
  std::vector<vertex_t> queue{src};
  depth[src] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const vertex_t u = queue[head];
    g.map_neighbors(u, [&](vertex_t v) {
      if (depth[v] < 0) {
        depth[v] = depth[u] + 1;
        queue.push_back(v);
      }
    });
  }
  return depth;
}

// Component representative per vertex (smallest vertex id in it), by a
// serial union-find over the edge keys.
inline std::vector<vertex_t> ref_components(vertex_t n,
                                            const std::vector<uint64_t>& edges) {
  std::vector<vertex_t> parent(n);
  std::iota(parent.begin(), parent.end(), vertex_t{0});
  auto find = [&](vertex_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (uint64_t e : edges) {
    vertex_t a = find(cpma::graph::edge_src(e));
    vertex_t b = find(cpma::graph::edge_dst(e));
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<vertex_t> rep(n);
  for (vertex_t v = 0; v < n; ++v) rep[v] = find(v);
  return rep;
}

inline uint64_t depth_mismatches(const std::vector<int32_t>& got,
                                 const std::vector<int32_t>& want) {
  uint64_t bad = got.size() != want.size();
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] != want[i]) ++bad;
  }
  return bad;
}

// Two labelings describe the same partition iff the label map is a
// bijection: count the vertices where either direction disagrees.
template <typename A, typename B>
uint64_t partition_mismatches(const std::vector<A>& got,
                              const std::vector<B>& want) {
  uint64_t bad = got.size() != want.size();
  std::unordered_map<uint64_t, uint64_t> fwd, back;
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    const uint64_t g = got[i], w = want[i];
    auto [f, fnew] = fwd.emplace(g, w);
    auto [b, bnew] = back.emplace(w, g);
    if (f->second != w || b->second != g) ++bad;
  }
  return bad;
}

}  // namespace perfbench::check
