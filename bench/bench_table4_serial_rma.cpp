// Table 4: serial batch-insert throughput — the paper's work-efficient batch
// algorithm run on one core versus the Rewired-PMA-style serial batch
// baseline (per-leaf merges with per-leaf rebalance walks; see
// PackedMemoryArray::insert_batch_serial_baseline). The baseline reproduces
// the RMA's batch structure over the same flat leaf array, not its
// memory-rewiring allocator.
//
// Expected shape (paper): the paper's algorithm ~1.2-1.3x the RMA across
// batch sizes.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "parallel/scheduler.hpp"
#include "pma/cpma.hpp"
#include "util/table.hpp"

namespace {

template <bool UseBaseline>
double run(const std::vector<uint64_t>& base,
           const std::vector<uint64_t>& inserts, uint64_t batch) {
  cpma::PMA s;
  std::vector<uint64_t> b = base;
  s.insert_batch(b.data(), b.size());
  std::vector<uint64_t> scratch;
  cpma::util::Timer t;
  for (uint64_t off = 0; off < inserts.size(); off += batch) {
    uint64_t len = std::min<uint64_t>(batch, inserts.size() - off);
    scratch.assign(inserts.begin() + off, inserts.begin() + off + len);
    if constexpr (UseBaseline) {
      s.insert_batch_serial_baseline(scratch.data(), len);
    } else {
      s.insert_batch(scratch.data(), len);
    }
  }
  return static_cast<double>(inserts.size()) / t.elapsed_seconds();
}

}  // namespace

int main() {
  bench::print_config_line("Table 4: serial batch insert, PMA vs RMA-like");
  auto base = bench::uniform_keys(bench::base_n(), 31);
  auto inserts = bench::uniform_keys(bench::insert_n(), 32);

  cpma::par::Scheduler::set_num_workers(1);  // the whole table is serial

  // Paper batches up to 10% of the structure; the RMA-style baseline's
  // per-leaf merges are designed for that regime (huge batches would push
  // every leaf into the point-insert fallback).
  std::vector<uint64_t> batch_sizes{10000, 100000,
                                    std::max<uint64_t>(bench::insert_n() / 4,
                                                       200000)};
  cpma::util::Table table({"batch", "RMA-like", "PMA", "PMA/RMA"});
  table.print_header();
  for (uint64_t bs : batch_sizes) {
    double rma = run<true>(base, inserts, bs);
    double pma = run<false>(base, inserts, bs);
    table.cell_u64(bs);
    table.cell_sci(rma);
    table.cell_sci(pma);
    table.cell_ratio(pma / rma);
    table.end_row();
  }
  cpma::par::Scheduler::set_num_workers(std::thread::hardware_concurrency());
  return 0;
}
