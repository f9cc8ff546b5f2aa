// Verifier self-test: the checker in src/check.hpp must accept the
// library's real answers and reject each injected wrong one: a corrupted
// has_batch bitmap bit, an off-by-one range scan, a reader scan that breaks
// its invariants, a wrong BFS depth and a merged CC component. Exits
// non-zero if any case is not caught.
#include <cstdio>
#include <vector>

#include "check.hpp"
#include "graph/algorithms.hpp"
#include "graph/fgraph.hpp"
#include "graph/generators.hpp"
#include "parallel/scheduler.hpp"
#include "pma/cpma.hpp"
#include "util/random.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void sets() {
  namespace check = perfbench::check;
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 50'000; ++i) keys.push_back(cpma::util::uniform_key(3, i));
  cpma::CPMA engine(keys.data(), keys.data() + keys.size());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const check::RefSet ref(keys);

  // Multi-get: half stored, half absent probes.
  std::vector<uint64_t> probes;
  for (uint64_t i = 0; i < 2048; ++i) {
    probes.push_back(i % 2 ? keys[(i * 7919) % keys.size()]
                           : cpma::util::uniform_key(4, i) | (uint64_t{1} << 41));
  }
  std::sort(probes.begin(), probes.end());
  std::vector<uint64_t> bits = engine.has_batch(probes.data(), probes.size());
  auto member = [&](uint64_t k) { return ref.has(k); };
  expect(check::bitmap_mismatches(bits.data(), probes.data(), probes.size(), member) == 0,
         "has_batch: true answer accepted");
  std::vector<uint64_t> bad = bits;
  bad[5] ^= uint64_t{1} << 17;
  expect(check::bitmap_mismatches(bad.data(), probes.data(), probes.size(), member) == 1,
         "has_batch: one corrupted bitmap bit caught");
  auto absent = [&](uint64_t k) { return !ref.has(k); };
  expect(check::forbidden_hits(bits.data(), probes.data(), probes.size(), absent) == 0,
         "reader multi-get: no hit on an absent probe");
  bad = bits;
  for (uint64_t i = 0; i < probes.size(); ++i) {
    if (!ref.has(probes[i])) {
      bad[i >> 6] |= uint64_t{1} << (i & 63);
      break;
    }
  }
  expect(check::forbidden_hits(bad.data(), probes.data(), probes.size(), absent) == 1,
         "reader multi-get: hit on an absent probe caught");

  // Fixed-length scan from a point between keys.
  const uint64_t start = keys[1000] + 1, len = 300;
  std::vector<uint64_t> got;
  engine.map_range_length([&](uint64_t k) { got.push_back(k); }, start, len);
  const uint64_t at = ref.lower(start);
  expect(check::scan_mismatches(got.data(), got.size(), keys.data() + at, len) == 0,
         "map_range_length: true answer accepted");
  std::vector<uint64_t> shifted;
  engine.map_range_length([&](uint64_t k) { shifted.push_back(k); }, keys[at + 1], len);
  expect(check::scan_mismatches(shifted.data(), shifted.size(), keys.data() + at, len) > 0,
         "map_range_length: off-by-one scan caught");
  std::vector<uint64_t> short_scan(got.begin(), got.end() - 1);
  expect(check::scan_mismatches(short_scan.data(), short_scan.size(), keys.data() + at,
                                len) == 1,
         "map_range_length: one key short caught");

  // Reader scan invariants.
  auto generated = [&](uint64_t k) { return ref.has(k); };
  expect(check::scan_invariant_violations(got.data(), got.size(), start, len, generated) == 0,
         "reader scan: true answer accepted");
  std::vector<uint64_t> dup = got;
  dup[10] = dup[9];
  expect(check::scan_invariant_violations(dup.data(), dup.size(), start, len, generated) > 0,
         "reader scan: repeated key caught");
  std::vector<uint64_t> below = got;
  below[0] = start - 1;
  expect(check::scan_invariant_violations(below.data(), below.size(), start, len,
                                          generated) > 0,
         "reader scan: key below the start caught");
  std::vector<uint64_t> foreign = got;
  foreign[20] += 1;  // uniform 40-bit keys: the next integer is not stored
  expect(!ref.has(foreign[20]) &&
             check::scan_invariant_violations(foreign.data(), foreign.size(), start,
                                              len, generated) > 0,
         "reader scan: key never generated caught");
}

void graphs() {
  namespace check = perfbench::check;
  using cpma::graph::vertex_t;
  // One worker: the library answers shown to the checker are then
  // deterministic.
  cpma::par::Scheduler::set_num_workers(1);
  const vertex_t n = 1 << 12;
  const std::vector<uint64_t> edges =
      cpma::graph::symmetrize(cpma::graph::rmat_edges(12, 20'000, 5));
  const cpma::graph::Csr csr(n, edges);
  cpma::graph::FGraph g(n, edges);

  const std::vector<int32_t> want = check::ref_bfs(csr, 0);
  const std::vector<int32_t> depth = cpma::graph::bfs(g, 0);
  expect(check::depth_mismatches(depth, want) == 0, "BFS: true depths accepted");
  std::vector<int32_t> wrong = depth;
  for (vertex_t v = 1; v < n; ++v) {
    if (wrong[v] > 0) {
      ++wrong[v];
      break;
    }
  }
  expect(check::depth_mismatches(wrong, want) == 1, "BFS: one wrong depth caught");

  const std::vector<vertex_t> comp = cpma::graph::connected_components(g);
  const std::vector<vertex_t> ref_comp = check::ref_components(n, edges);
  expect(check::partition_mismatches(comp, ref_comp) == 0, "CC: true partition accepted");
  std::vector<vertex_t> relabeled(n);
  for (vertex_t v = 0; v < n; ++v) relabeled[v] = n - 1 - comp[v];
  expect(check::partition_mismatches(relabeled, ref_comp) == 0,
         "CC: same partition under other labels accepted");
  std::vector<vertex_t> merged = comp;
  vertex_t other = comp[0];
  for (vertex_t v = 0; v < n; ++v) {
    if (comp[v] != comp[0]) {
      other = comp[v];
      break;
    }
  }
  for (vertex_t v = 0; v < n; ++v) {
    if (merged[v] == other) merged[v] = comp[0];
  }
  expect(other != comp[0] && check::partition_mismatches(merged, ref_comp) > 0,
         "CC: two components merged caught");
}

}  // namespace

int main() {
  sets();
  graphs();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
