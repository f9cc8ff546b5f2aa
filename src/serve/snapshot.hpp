// Immutable per-shard snapshot views and their epoch-reclaimed holder.
//
// A SnapshotView is one consistent, immutable picture of a ShardedPMA: the
// splitter vector plus one engine snapshot per shard. Shard snapshots are
// whole engine copies held by shared_ptr — copy-on-write at shard
// granularity: when the writer publishes a new view it copies only the
// shards whose version advanced and SHARES the untouched shards' engines
// with the previous view (PaC-tree style functional snapshots, with whole
// pointer-free engines as the shared chunks). Only the writer ever touches
// the shared_ptr control blocks; readers receive a raw `const View*` under
// an epoch pin and navigate raw `const Engine*`s, so the read path is
// refcount-free.
//
// The view exposes the full read API of the sharded structure — has /
// successor / min / max / size / map / map_range / map_range_length /
// iteration — with the same key-order stitching as ShardedPMA (shard
// ranges are disjoint and ascending).
//
// SnapshotHolder owns the single atomic current-view pointer plus the
// retired list: publish() swaps in a new view, stamps the old one with the
// post-advance epoch, and reclaims every retired view no pinned reader can
// still reference (see serve/epoch.hpp for the safety argument).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "parallel/scheduler.hpp"
#include "pma/flat_leaves.hpp"
#include "serve/epoch.hpp"

namespace cpma::serve {

template <typename Engine>
class SnapshotView {
 public:
  using key_type = uint64_t;
  using engine_type = Engine;

  // publish_seq / publish_time_ns identify WHICH published view a reader is
  // pinned to and WHEN it was cut (writer's steady clock): the streaming
  // graph layer reports snapshot age/staleness from them. Both default to 0
  // for directly-constructed views in tests.
  SnapshotView(std::vector<key_type> splitters,
               std::vector<std::shared_ptr<const Engine>> shards,
               uint64_t publish_seq = 0, uint64_t publish_time_ns = 0)
      : splitters_(std::move(splitters)), shards_(std::move(shards)),
        publish_seq_(publish_seq), publish_time_ns_(publish_time_ns) {}

  uint64_t num_shards() const { return shards_.size(); }
  const Engine& shard(uint64_t s) const { return *shards_[s]; }
  const std::vector<key_type>& splitters() const { return splitters_; }
  const std::shared_ptr<const Engine>& shard_ref(uint64_t s) const {
    return shards_[s];
  }
  uint64_t publish_seq() const { return publish_seq_; }
  uint64_t publish_time_ns() const { return publish_time_ns_; }

  // ---- size ---------------------------------------------------------------

  uint64_t size() const {
    uint64_t total = 0;
    for (const auto& e : shards_) total += e->size();
    return total;
  }

  bool empty() const {
    for (const auto& e : shards_) {
      if (!e->empty()) return false;
    }
    return true;
  }

  // ---- point reads --------------------------------------------------------

  bool has(key_type key) const { return shards_[shard_for(key)]->has(key); }

  std::optional<key_type> successor(key_type key) const {
    for (uint64_t s = shard_for(key); s < shards_.size(); ++s) {
      if (auto v = shards_[s]->successor(key)) return v;
    }
    return std::nullopt;
  }

  std::optional<key_type> min() const {
    for (const auto& e : shards_) {
      if (auto v = e->min()) return v;
    }
    return std::nullopt;
  }

  std::optional<key_type> max() const {
    for (uint64_t s = shards_.size(); s-- > 0;) {
      if (auto v = shards_[s]->max()) return v;
    }
    return std::nullopt;
  }

  // ---- scans --------------------------------------------------------------

  template <typename F>
  void map(F&& f) const {
    for (const auto& e : shards_) e->map(f);
  }

  template <typename F>
  void map_range(F&& f, key_type start, key_type end) const {
    if (start >= end) return;
    for (uint64_t s = shard_for(start); s < shards_.size(); ++s) {
      if (s > 0 && splitters_[s - 1] >= end) break;
      shards_[s]->map_range(f, start, end);
    }
  }

  template <typename F>
  uint64_t map_range_length(F&& f, key_type start, uint64_t length) const {
    uint64_t applied = 0;
    for (uint64_t s = shard_for(start);
         s < shards_.size() && applied < length; ++s) {
      applied += shards_[s]->map_range_length(f, start, length - applied);
    }
    return applied;
  }

  // ---- batch queries ------------------------------------------------------
  // ShardedPMA's batch reads over the immutable view: sorted queries
  // partitioned against the splitters, per-shard slices as sibling tasks,
  // each engine walking every touched leaf once with a forward seek cursor
  // (pma/flat_leaves.hpp). Because the view never mutates, any number of
  // reader threads may run these concurrently on one pinned snapshot —
  // this is the multi-get surface serving clients use.

  void has_batch(const key_type* keys, uint64_t n, uint64_t* bits,
                 uint64_t bit_base = 0) const {
    pma::ShardedBatchReads<SnapshotView>::has_batch(*this, keys, n, bits,
                                                    bit_base);
  }

  std::vector<uint64_t> has_batch(const key_type* keys, uint64_t n) const {
    std::vector<uint64_t> bits((n + 63) / 64, 0);
    has_batch(keys, n, bits.data(), 0);
    return bits;
  }

  void successor_batch(const key_type* keys, uint64_t n, key_type* out,
                       uint64_t* found, uint64_t bit_base = 0) const {
    pma::ShardedBatchReads<SnapshotView>::successor_batch(*this, keys, n, out,
                                                          found, bit_base);
  }

  template <typename F>
  void map_ranges(const std::pair<key_type, key_type>* ranges, uint64_t m,
                  F&& f) const {
    if (m == 0) return;
    const uint64_t s_count = shards_.size();
    std::vector<std::pair<uint64_t, uint64_t>> slices(s_count);
    uint64_t rb = 0;
    for (uint64_t s = 0; s < s_count; ++s) {
      const key_type lo = s == 0 ? 0 : splitters_[s - 1];
      while (rb < m && ranges[rb].second <= lo) ++rb;
      uint64_t re = rb;
      while (re < m &&
             (s + 1 >= s_count || ranges[re].first < splitters_[s])) {
        ++re;
      }
      slices[s] = {rb, re};
    }
    par::parallel_for(0, s_count, [&](uint64_t s) {
      auto [b, e] = slices[s];
      if (e > b) {
        shards_[s]->map_ranges(
            ranges + b, e - b,
            [&, b](uint64_t ri, key_type k) { f(b + ri, k); });
      }
    }, 1);
  }

  // ---- flattened-leaf iteration (graph vertex index) ----------------------
  // Same advanced-iteration surface as ShardedPMA, over the IMMUTABLE view:
  // positions stay valid for the life of the epoch pin, so the graph layer
  // builds a vertex index over a pinned snapshot while ingest continues.

  using Position = pma::FlatPosition<Engine>;
  using FlatOps = pma::FlatLeafOps<SnapshotView, Engine>;

  uint64_t num_leaves() const { return FlatOps::num_leaves(*this); }

  uint64_t leaf_element_count(uint64_t l) const {
    return FlatOps::leaf_element_count(*this, l);
  }

  template <typename F>
  void scan_leaf_positions(uint64_t l, F&& f) const {
    FlatOps::scan_leaf_positions(*this, l, std::forward<F>(f));
  }

  template <typename F>
  void scan_leaf_keys(uint64_t l, F&& f) const {
    FlatOps::scan_leaf_keys(*this, l, std::forward<F>(f));
  }

  template <typename F>
  void map_from_position(Position pos, F&& f) const {
    FlatOps::map_from_position(*this, pos, std::forward<F>(f));
  }

  // ---- iteration ----------------------------------------------------------

  class const_iterator {
   public:
    using value_type = key_type;
    using difference_type = std::ptrdiff_t;
    using reference = key_type;
    using pointer = const key_type*;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    key_type operator*() const { return *it_; }

    const_iterator& operator++() {
      ++it_;
      advance_past_empty();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++*this;
      return copy;
    }

    bool operator==(const const_iterator& o) const {
      if (shard_ != o.shard_) return false;
      if (owner_ == nullptr || shard_ == owner_->shards_.size()) return true;
      return it_ == o.it_;
    }

   private:
    friend class SnapshotView;
    explicit const_iterator(const SnapshotView* owner) : owner_(owner) {}

    void advance_past_empty() {
      while (shard_ < owner_->shards_.size() &&
             it_ == owner_->shards_[shard_]->end()) {
        ++shard_;
        if (shard_ < owner_->shards_.size()) {
          it_ = owner_->shards_[shard_]->begin();
        }
      }
    }

    const SnapshotView* owner_ = nullptr;
    uint64_t shard_ = 0;
    typename Engine::const_iterator it_{};
  };

  const_iterator begin() const {
    const_iterator it(this);
    it.shard_ = 0;
    it.it_ = shards_[0]->begin();
    it.advance_past_empty();
    return it;
  }

  const_iterator end() const {
    const_iterator it(this);
    it.shard_ = shards_.size();
    return it;
  }

 private:
  uint64_t shard_for(key_type key) const {
    return static_cast<uint64_t>(
        std::upper_bound(splitters_.begin(), splitters_.end(), key) -
        splitters_.begin());
  }

  std::vector<key_type> splitters_;
  std::vector<std::shared_ptr<const Engine>> shards_;
  uint64_t publish_seq_ = 0;
  uint64_t publish_time_ns_ = 0;
};

// Writer-owned view holder: one atomic current pointer, writer-only retired
// list. All methods except acquire() must be called from the (single)
// writer; acquire() is safe from any thread holding an epoch pin.
template <typename View>
class SnapshotHolder {
 public:
  SnapshotHolder() = default;
  SnapshotHolder(const SnapshotHolder&) = delete;
  SnapshotHolder& operator=(const SnapshotHolder&) = delete;

  ~SnapshotHolder() {
    delete current_.load(std::memory_order_acquire);
    for (const Retired& r : retired_) delete r.view;
  }

  // Reader side: the current view. Caller must hold an EpochManager pin
  // taken BEFORE this load and keep it for as long as the pointer is used.
  const View* acquire() const {
    return current_.load(std::memory_order_seq_cst);
  }

  // Writer side: swap in `next`, retire the previous view stamped with the
  // post-advance epoch, then reclaim whatever became safe.
  void publish(std::unique_ptr<const View> next, EpochManager& epochs) {
    const View* old = current_.exchange(next.release(),
                                        std::memory_order_seq_cst);
    if (old != nullptr) retired_.push_back({old, epochs.advance()});
    collect(epochs);
  }

  // Frees every retired view with stamp <= min_active. Called by publish;
  // also callable directly so an idle writer can drain the list.
  void collect(EpochManager& epochs) {
    if (retired_.empty()) return;
    const uint64_t safe = epochs.min_active();
    auto keep = retired_.begin();
    for (auto it = retired_.begin(); it != retired_.end(); ++it) {
      if (it->epoch <= safe) {
        delete it->view;
        ++reclaimed_;
      } else {
        *keep++ = *it;
      }
    }
    retired_.erase(keep, retired_.end());
  }

  uint64_t retired_count() const { return retired_.size(); }
  uint64_t reclaimed_count() const { return reclaimed_; }

 private:
  struct Retired {
    const View* view;
    uint64_t epoch;  // reclaimable once min_active() >= epoch
  };

  std::atomic<const View*> current_{nullptr};
  std::vector<Retired> retired_;
  uint64_t reclaimed_ = 0;
};

}  // namespace cpma::serve
