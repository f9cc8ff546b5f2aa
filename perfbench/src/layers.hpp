// Per-layer metrics shared by the workloads. Two probes run on the
// workload's own data after its measured phases (traced runs):
//   codec  serial decode of a sample of the workload's leaves, re-encoded
//          by the leaf policy and read back through its block stream
//          decoder (the DeltaStream kernel; bench_leaf_decode's "block")
//   leaf   serial scan_leaf_keys over every leaf of the structure
// and two reporters turn counter deltas into engine and sharded metrics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check.hpp"
#include "common.hpp"

namespace perfbench {

// `Source` exposes num_leaves() and scan_leaf_keys(l, f): an engine, a
// sharded store or a pinned snapshot view. `cap` is the leaf size to
// re-encode at (the largest leaf of the source).
template <typename Leaf, typename Source>
void probe_codec(const Source& src, size_t cap, Report& rep) {
  constexpr uint64_t kMaxSampleLeaves = 8192;
  const uint64_t leaves = src.num_leaves();
  const uint64_t step = leaves > kMaxSampleLeaves ? leaves / kMaxSampleLeaves : 1;
  std::vector<uint8_t> buf;
  std::vector<uint64_t> keys, sample;
  uint64_t used = 0, slots = 0;
  for (uint64_t l = 0; l < leaves; l += step) {
    keys.clear();
    src.scan_leaf_keys(l, [&](uint64_t k) { keys.push_back(k); });
    if (keys.empty() || keys[0] == 0) continue;  // key 0 lives out of band
    buf.resize((slots + 1) * cap);
    uint8_t* lp = buf.data() + slots * cap;
    Leaf::write(lp, cap, keys.data(), keys.size());
    used += Leaf::used_bytes(lp, cap);
    sample.insert(sample.end(), keys.begin(), keys.end());
    ++slots;
  }
  if (sample.empty()) return;
  auto decode_all = [&](auto&& emit) {
    for (uint64_t s = 0; s < slots; ++s) {
      typename Leaf::BlockCursor bc{};
      uint64_t out[Leaf::kBlockKeys];
      while (size_t k = Leaf::block_next(buf.data() + s * cap, cap, bc, out,
                                         Leaf::kBlockKeys)) {
        emit(out, k);
      }
    }
  };
  std::vector<uint64_t> round_trip;
  decode_all([&](const uint64_t* out, size_t k) {
    round_trip.insert(round_trip.end(), out, out + k);
  });
  rep.check("codec round trip",
            check::scan_mismatches(round_trip.data(), round_trip.size(),
                                   sample.data(), sample.size()));
  uint64_t decoded = 0, sink = 0;
  Stopwatch sw;
  do {
    decode_all([&](const uint64_t* out, size_t k) {
      decoded += k;
      sink += out[k - 1];
    });
  } while (sw.seconds() < 0.25);
  const double secs = sw.seconds();
  volatile uint64_t keep = sink;
  (void)keep;
  rep.layer("codec.decode_keys_per_s", static_cast<double>(decoded) / secs);
  rep.layer("codec.bytes_per_key",
            static_cast<double>(used) / static_cast<double>(sample.size()));
}

template <typename Source>
void probe_leaf_scan(const Source& src, Report& rep) {
  const uint64_t leaves = src.num_leaves();
  uint64_t scanned = 0, sink = 0;
  Stopwatch sw;
  do {
    for (uint64_t l = 0; l < leaves; ++l) {
      src.scan_leaf_keys(l, [&](uint64_t k) {
        sink += k;
        ++scanned;
      });
    }
  } while (sw.seconds() < 0.25);
  volatile uint64_t keep = sink;
  (void)keep;
  rep.layer("leaf.scan_keys_per_s", static_cast<double>(scanned) / sw.seconds());
}

// Engine phase sums (BatchPhaseTimes deltas) as per-layer metrics.
inline void report_engine_phases(const cpma::pma::BatchPhaseTimes& p,
                                 Report& rep) {
  rep.layer("engine.route_s", p.route_ns * 1e-9);
  rep.layer("engine.merge_s", p.merge_ns * 1e-9);
  rep.layer("engine.count_s", p.count_ns * 1e-9);
  rep.layer("engine.redistribute_s", p.redistribute_ns * 1e-9);
  rep.layer("engine.spread_s", p.spread_ns * 1e-9);
  rep.layer("engine.rebuild_s", p.rebuild_ns * 1e-9);
  rep.layer("engine.batches", static_cast<double>(p.batches));
  rep.layer("engine.spreads", static_cast<double>(p.spreads));
  rep.layer("engine.rebuilds", static_cast<double>(p.rebuilds));
}

// Engine shape and router counters of a sharded store.
template <typename Store>
void report_sharded(const Store& store,
                    const cpma::pma::ShardRouterTimes& router, Report& rep) {
  rep.layer("sharded.route_s", router.route_ns * 1e-9);
  rep.layer("sharded.rebalance_s", router.rebalance_ns * 1e-9);
  rep.layer("sharded.rebalances", static_cast<double>(router.rebalances));
  rep.layer("sharded.moves", static_cast<double>(router.moves));
  const std::vector<uint64_t> bytes = store.shard_content_bytes();
  uint64_t total = 0, mx = 0, leaves = 0, cap = 0;
  for (uint64_t b : bytes) {
    total += b;
    mx = std::max(mx, b);
  }
  for (uint64_t s = 0; s < store.num_shards(); ++s) {
    leaves += store.shard(s).num_leaves();
    cap += store.shard(s).total_bytes();
  }
  const double mean = static_cast<double>(total) / bytes.size();
  rep.layer("sharded.imbalance", mean > 0 ? mx / mean : 0.0);
  rep.layer("engine.num_leaves", static_cast<double>(leaves));
  rep.layer("engine.density", cap ? static_cast<double>(total) / cap : 0.0);
}

}  // namespace perfbench
