// Graph workload generators.
//
// The paper evaluates on real social networks plus synthetic graphs; without
// the multi-GB downloads we generate the same *shapes*: RMAT (a=.5, b=c=.1,
// d=.3 — the skewed distribution the paper samples its insert batches from)
// and Erdős–Rényi (the paper's ER graph, uniform degrees). See
// docs/REPRODUCING.md for where these stand in for the paper's datasets.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/edge.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/seq_ops.hpp"
#include "parallel/sort.hpp"
#include "util/random.hpp"

namespace cpma::graph {

// `m` directed RMAT edges over 2^scale vertices (may contain duplicates,
// like a real edge stream). Deterministic given (seed, i).
inline std::vector<uint64_t> rmat_edges(uint32_t scale, uint64_t m,
                                        uint64_t seed, double a = 0.5,
                                        double b = 0.1, double c = 0.1) {
  std::vector<uint64_t> edges(m);
  const double ab = a + b;
  const double abc = a + b + c;
  par::parallel_for(0, m, [&](uint64_t i) {
    uint64_t u = 0, v = 0;
    uint64_t state = util::hash64(seed ^ util::hash64(i));
    for (uint32_t level = 0; level < scale; ++level) {
      state = util::hash64(state);
      double r = static_cast<double>(state >> 11) * 0x1.0p-53;
      u <<= 1;
      v <<= 1;
      if (r < a) {
        // top-left quadrant: no bits set
      } else if (r < ab) {
        v |= 1;
      } else if (r < abc) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    edges[i] = edge_key(static_cast<vertex_t>(u), static_cast<vertex_t>(v));
  });
  return edges;
}

// Directed Erdős–Rényi G(n, p) edges via geometric skipping over the n*n
// pair space, parallelized across row blocks (each block draws its own
// deterministic stream). Self-loops excluded.
inline std::vector<uint64_t> erdos_renyi_edges(uint32_t n, double p,
                                               uint64_t seed) {
  if (p <= 0 || n == 0) return {};
  const uint64_t rows_per_block = std::max<uint64_t>(1, n / 256);
  const uint64_t num_blocks = (n + rows_per_block - 1) / rows_per_block;
  const double log1mp = std::log1p(-p);
  std::vector<std::vector<uint64_t>> parts(num_blocks);
  par::parallel_for(0, num_blocks, [&](uint64_t blk) {
    uint64_t row_lo = blk * rows_per_block;
    uint64_t row_hi = std::min<uint64_t>(n, row_lo + rows_per_block);
    util::Rng rng(util::hash64(seed ^ (blk * 0x9e3779b97f4a7c15ULL)));
    auto& out = parts[blk];
    // Linearized index within this block of rows.
    uint64_t idx = 0;
    const uint64_t limit = (row_hi - row_lo) * n;
    while (true) {
      double u = rng.next_double();
      double skip = std::floor(std::log(1.0 - u) / log1mp);
      if (skip > static_cast<double>(limit)) break;
      idx += static_cast<uint64_t>(skip) + 1;
      if (idx > limit) break;
      uint64_t zero_based = idx - 1;
      vertex_t src = static_cast<vertex_t>(row_lo + zero_based / n);
      vertex_t dst = static_cast<vertex_t>(zero_based % n);
      if (src != dst) out.push_back(edge_key(src, dst));
    }
  }, 1);
  std::vector<uint64_t> edges;
  size_t total = 0;
  for (auto& part : parts) total += part.size();
  edges.reserve(total);
  for (auto& part : parts) {
    edges.insert(edges.end(), part.begin(), part.end());
  }
  return edges;
}

// Adds the reverse of every edge, drops self-loops, sorts, dedupes: the
// undirected input format the graph systems consume.
inline std::vector<uint64_t> symmetrize(const std::vector<uint64_t>& edges) {
  std::vector<uint64_t> out;
  out.reserve(edges.size() * 2);
  for (uint64_t e : edges) {
    vertex_t u = edge_src(e), v = edge_dst(e);
    if (u == v) continue;
    out.push_back(edge_key(u, v));
    out.push_back(edge_key(v, u));
  }
  par::parallel_sort(out);
  par::dedupe_sorted(out);
  return out;
}

// Number of vertices implied by an edge list (max endpoint + 1).
inline vertex_t max_vertex(const std::vector<uint64_t>& edges) {
  vertex_t mx = 0;
  for (uint64_t e : edges) {
    mx = std::max({mx, edge_src(e), edge_dst(e)});
  }
  return mx;
}

}  // namespace cpma::graph
