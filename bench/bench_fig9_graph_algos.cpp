// Figure 9 / Table 14: graph-algorithm runtimes (PR, CC, BC) for F-Graph,
// C-PaC, and Aspen-like containers, on RMAT and Erdős–Rényi graphs (the
// substitution for the paper's social-network datasets; see
// docs/REPRODUCING.md).
//
// Expected shape (paper): F-Graph fastest on average (~1.2x over C-PaC,
// ~1.3x over Aspen), with the largest advantage on PR (arbitrary-order full
// scans, where the flat layout wins) and the smallest on BC
// (topology-order, where the vertex-index rebuild costs ~10%).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/algorithms.hpp"
#include "graph/fgraph.hpp"
#include "graph/generators.hpp"
#include "graph/tree_graphs.hpp"
#include "util/table.hpp"

using namespace cpma::graph;

namespace {

struct Times {
  double pr, cc, bc;
};

template <typename G>
Times run(vertex_t n, const std::vector<uint64_t>& edges, vertex_t bc_src) {
  G g(n, edges);
  Times t;
  t.pr = cpma::util::time_trials([&] { pagerank(g); }, bench::trials(), 1);
  t.cc = cpma::util::time_trials([&] { connected_components(g); },
                                 bench::trials(), 1);
  t.bc = cpma::util::time_trials([&] { betweenness_centrality(g, bc_src); },
                                 bench::trials(), 1);
  return t;
}

void rows(cpma::util::Table& table, const char* graph_name, vertex_t n,
          const std::vector<uint64_t>& edges) {
  // BC source: highest-degree vertex (inside the giant component).
  std::vector<uint64_t> deg(n, 0);
  for (uint64_t e : edges) deg[edge_src(e)]++;
  vertex_t src = 0;
  for (vertex_t v = 0; v < n; ++v) {
    if (deg[v] > deg[src]) src = v;
  }
  Times f = run<FGraph>(n, edges, src);
  Times c = run<CPacGraph>(n, edges, src);
  Times a = run<AspenGraph>(n, edges, src);
  const char* algos[3] = {"PR", "CC", "BC"};
  double fv[3] = {f.pr, f.cc, f.bc};
  double cv[3] = {c.pr, c.cc, c.bc};
  double av[3] = {a.pr, a.cc, a.bc};
  for (int i = 0; i < 3; ++i) {
    table.cell_str(graph_name);
    table.cell_str(algos[i]);
    table.cell_fixed(av[i], 4);
    table.cell_fixed(cv[i], 4);
    table.cell_fixed(fv[i], 4);
    table.cell_ratio(av[i] / fv[i]);
    table.cell_ratio(cv[i] / fv[i]);
    table.end_row();
  }
}

}  // namespace

int main() {
  bench::print_config_line("Figure 9 / Table 14: graph algorithms");
  const uint32_t scale = static_cast<uint32_t>(
      cpma::util::env_u64("CPMA_BENCH_GRAPH_SCALE", 17));
  const uint64_t m = cpma::util::scaled(2'000'000);

  auto rmat = symmetrize(rmat_edges(scale, m, 91));
  auto er = symmetrize(
      erdos_renyi_edges(1u << scale,
                        static_cast<double>(m) / (1ull << (2 * scale)), 92));
  std::printf("# RMAT: n=%u m=%zu | ER: n=%u m=%zu\n", 1u << scale,
              rmat.size(), 1u << scale, er.size());

  cpma::util::Table table({"graph", "algo", "Aspen", "C-PaC", "F-Graph",
                           "Aspen/F", "C-PaC/F"});
  table.print_header();
  rows(table, "RMAT", 1u << scale, rmat);
  rows(table, "ER", 1u << scale, er);
  return 0;
}
