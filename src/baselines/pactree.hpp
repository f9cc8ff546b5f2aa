// PaC-tree baseline (CPAM-like): a batch-parallel search tree whose leaves
// are BLOCKS of up to ~256 elements, in uncompressed (U-PaC) and compressed
// (C-PaC, delta + byte codes) variants — the paper's main comparator.
//
// Differences from CPAM: CPAM rebalances with
// weight-balanced joins; we keep weight balance by rebuilding a subtree when
// a batch update unbalances it (scapegoat-style). Batch updates rebuild the
// merged leaves either way, so the batch work bound matches, and the
// structural properties the paper measures — pointer-chased interior nodes,
// blocked compressed leaves, ~P-element cache behaviour — are preserved.
// Like the paper's configuration, updates are in-place (single writer).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "codec/varint.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/seq_ops.hpp"
#include "parallel/sort.hpp"

namespace cpma::baselines {

template <bool Compressed>
class PacTree {
 public:
  using key_type = uint64_t;
  // The paper sets the PaC-tree block size to the library default of 256.
  static constexpr uint64_t kBlockMax = 512;
  static constexpr double kBalance = 0.75;  // weight-balance tolerance

  PacTree() = default;
  ~PacTree() { destroy(root_); }
  PacTree(const PacTree&) = delete;
  PacTree& operator=(const PacTree&) = delete;
  PacTree(PacTree&& o) noexcept : root_(o.root_) { o.root_ = nullptr; }
  PacTree& operator=(PacTree&& o) noexcept {
    if (this != &o) {
      destroy(root_);
      root_ = o.root_;
      o.root_ = nullptr;
    }
    return *this;
  }

  uint64_t size() const { return root_ == nullptr ? 0 : root_->size; }

  bool has(key_type k) const {
    const Node* n = root_;
    while (n != nullptr && !n->leaf) {
      const auto* in = static_cast<const Interior*>(n);
      n = k < in->pivot ? in->left : in->right;
    }
    if (n == nullptr) return false;
    bool found = false;
    leaf_scan(static_cast<const LeafNode*>(n), [&](key_type x) {
      if (x == k) found = true;
      return x < k;
    });
    return found;
  }

  bool insert(key_type k) { return insert_batch(&k, 1, true) == 1; }
  bool remove(key_type k) { return remove_batch(&k, 1, true) == 1; }

  uint64_t insert_batch(key_type* input, uint64_t n, bool sorted = false) {
    if (n == 0) return 0;
    if (!sorted) par::parallel_sort(input, n);
    std::vector<key_type> batch(input, input + n);
    par::dedupe_sorted(batch);
    std::atomic<uint64_t> added{0};
    root_ = insert_rec(root_, batch.data(), batch.size(), added, 12);
    return added.load();
  }

  uint64_t remove_batch(key_type* input, uint64_t n, bool sorted = false) {
    if (n == 0 || root_ == nullptr) return 0;
    if (!sorted) par::parallel_sort(input, n);
    std::vector<key_type> batch(input, input + n);
    par::dedupe_sorted(batch);
    std::atomic<uint64_t> removed{0};
    root_ = remove_rec(root_, batch.data(), batch.size(), removed, 12);
    return removed.load();
  }

  template <typename F>
  void map(F&& f) const {
    map_rec(root_, [&](key_type k) {
      f(k);
      return true;
    });
  }

  template <typename F>
  void map_range(F&& f, key_type start, key_type end) const {
    if (start >= end) return;
    range_rec(root_, start, end, f);
  }

  template <typename F>
  uint64_t map_range_length(F&& f, key_type start, uint64_t length) const {
    uint64_t applied = 0;
    if (length == 0) return 0;
    length_rec(root_, start, length, applied, f);
    return applied;
  }

  uint64_t sum() const {
    uint64_t s = 0;
    map([&](key_type k) { s += k; });
    return s;
  }

  uint64_t get_size() const { return bytes_rec(root_) + sizeof(*this); }

  // Test hook: order, size fields, block-size bounds, balance.
  bool check_invariants() const {
    key_type prev = 0;
    bool first = true;
    return check_rec(root_, &prev, &first, /*is_root=*/true);
  }

 private:
  struct Node {
    uint64_t size;
    bool leaf;
  };
  struct Interior : Node {
    key_type pivot;  // min key of the right subtree
    Node* left;
    Node* right;
  };
  struct LeafNode : Node {
    key_type head = 0;               // first key (uncompressed, like CPAM)
    std::vector<uint8_t> bytes;      // compressed: delta stream after head
    std::vector<key_type> keys;      // uncompressed: all keys
  };

  // ---- leaf encode/decode --------------------------------------------------

  static LeafNode* leaf_make(const key_type* keys, uint64_t n) {
    assert(n > 0);
    auto* l = new LeafNode();
    l->size = n;
    l->leaf = true;
    l->head = keys[0];
    if constexpr (Compressed) {
      uint8_t tmp[codec::kMaxVarintBytes];
      l->bytes.reserve(n * 2);
      for (uint64_t i = 1; i < n; ++i) {
        size_t len = codec::varint_encode(keys[i] - keys[i - 1], tmp);
        l->bytes.insert(l->bytes.end(), tmp, tmp + len);
      }
      l->bytes.shrink_to_fit();
    } else {
      l->keys.assign(keys, keys + n);
    }
    return l;
  }

  // Applies f(key) in order while f returns true; returns false if stopped.
  template <typename F>
  static bool leaf_scan(const LeafNode* l, F&& f) {
    if constexpr (Compressed) {
      key_type cur = l->head;
      if (!f(cur)) return false;
      size_t pos = 0;
      while (pos < l->bytes.size()) {
        uint64_t delta;
        pos += codec::varint_decode(l->bytes.data() + pos, &delta);
        cur += delta;
        if (!f(cur)) return false;
      }
      return true;
    } else {
      for (key_type k : l->keys) {
        if (!f(k)) return false;
      }
      return true;
    }
  }

  static void leaf_decode(const LeafNode* l, std::vector<key_type>& out) {
    leaf_scan(l, [&](key_type k) {
      out.push_back(k);
      return true;
    });
  }

  // ---- construction ----------------------------------------------------------

  static Node* build(const key_type* keys, uint64_t n, int par_depth) {
    if (n == 0) return nullptr;
    if (n <= kBlockMax) return leaf_make(keys, n);
    uint64_t mid = n / 2;
    auto* in = new Interior();
    in->leaf = false;
    in->size = n;
    in->pivot = keys[mid];
    if (par_depth > 0) {
      par::fork2(
          [&] { in->left = build(keys, mid, par_depth - 1); },
          [&] { in->right = build(keys + mid, n - mid, par_depth - 1); });
    } else {
      in->left = build(keys, mid, 0);
      in->right = build(keys + mid, n - mid, 0);
    }
    return in;
  }

  static void destroy(Node* n) {
    if (n == nullptr) return;
    if (!n->leaf) {
      auto* in = static_cast<Interior*>(n);
      destroy(in->left);
      destroy(in->right);
      delete in;
    } else {
      delete static_cast<LeafNode*>(n);
    }
  }

  // Parallel in-order flatten using the size fields for offsets.
  static void flatten(const Node* n, key_type* out, int par_depth) {
    if (n == nullptr) return;
    if (n->leaf) {
      const auto* l = static_cast<const LeafNode*>(n);
      uint64_t i = 0;
      leaf_scan(l, [&](key_type k) {
        out[i++] = k;
        return true;
      });
      return;
    }
    const auto* in = static_cast<const Interior*>(n);
    uint64_t left_size = in->left == nullptr ? 0 : in->left->size;
    if (par_depth > 0) {
      par::fork2([&] { flatten(in->left, out, par_depth - 1); },
                 [&] { flatten(in->right, out + left_size, par_depth - 1); });
    } else {
      flatten(in->left, out, 0);
      flatten(in->right, out + left_size, 0);
    }
  }

  static Node* rebuild(Node* n, int par_depth) {
    std::vector<key_type> all(n->size);
    flatten(n, all.data(), par_depth);
    destroy(n);
    return build(all.data(), all.size(), par_depth);
  }

  static bool unbalanced(const Node* n) {
    if (n == nullptr || n->leaf) return false;
    const auto* in = static_cast<const Interior*>(n);
    uint64_t ls = in->left == nullptr ? 0 : in->left->size;
    uint64_t rs = in->right == nullptr ? 0 : in->right->size;
    uint64_t total = ls + rs;
    if (total <= 2 * kBlockMax) return false;  // small subtrees: rebuild cheap anyway when merged
    return std::max(ls, rs) >
           static_cast<uint64_t>(kBalance * static_cast<double>(total)) + 4;
  }

  // ---- batch updates ----------------------------------------------------------

  static Node* insert_rec(Node* t, const key_type* batch, uint64_t n,
                          std::atomic<uint64_t>& added, int par_depth) {
    if (n == 0) return t;
    if (t == nullptr) {
      added.fetch_add(n, std::memory_order_relaxed);
      return build(batch, n, par_depth);
    }
    if (t->leaf) {
      auto* l = static_cast<LeafNode*>(t);
      std::vector<key_type> existing;
      existing.reserve(l->size + n);
      leaf_decode(l, existing);
      std::vector<key_type> merged(existing.size() + n);
      std::merge(existing.begin(), existing.end(), batch, batch + n,
                 merged.begin());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      added.fetch_add(merged.size() - existing.size(),
                      std::memory_order_relaxed);
      delete l;
      return build(merged.data(), merged.size(), par_depth);
    }
    auto* in = static_cast<Interior*>(t);
    uint64_t nl = static_cast<uint64_t>(
        std::lower_bound(batch, batch + n, in->pivot) - batch);
    if (par_depth > 0 && n > 64) {
      par::fork2(
          [&] {
            in->left = insert_rec(in->left, batch, nl, added, par_depth - 1);
          },
          [&] {
            in->right = insert_rec(in->right, batch + nl, n - nl, added,
                                   par_depth - 1);
          });
    } else {
      in->left = insert_rec(in->left, batch, nl, added, 0);
      in->right = insert_rec(in->right, batch + nl, n - nl, added, 0);
    }
    in->size = (in->left ? in->left->size : 0) +
               (in->right ? in->right->size : 0);
    if (in->left == nullptr || in->right == nullptr) {
      Node* only = in->left != nullptr ? in->left : in->right;
      delete in;
      return only;
    }
    if (unbalanced(in)) return rebuild(in, par_depth);
    return in;
  }

  static Node* remove_rec(Node* t, const key_type* batch, uint64_t n,
                          std::atomic<uint64_t>& removed, int par_depth) {
    if (t == nullptr || n == 0) return t;
    if (t->leaf) {
      auto* l = static_cast<LeafNode*>(t);
      std::vector<key_type> existing;
      existing.reserve(l->size);
      leaf_decode(l, existing);
      std::vector<key_type> kept;
      kept.reserve(existing.size());
      std::set_difference(existing.begin(), existing.end(), batch, batch + n,
                          std::back_inserter(kept));
      if (kept.size() == existing.size()) return t;
      removed.fetch_add(existing.size() - kept.size(),
                        std::memory_order_relaxed);
      delete l;
      if (kept.empty()) return nullptr;
      return build(kept.data(), kept.size(), par_depth);
    }
    auto* in = static_cast<Interior*>(t);
    uint64_t nl = static_cast<uint64_t>(
        std::lower_bound(batch, batch + n, in->pivot) - batch);
    if (par_depth > 0 && n > 64) {
      par::fork2(
          [&] {
            in->left =
                remove_rec(in->left, batch, nl, removed, par_depth - 1);
          },
          [&] {
            in->right = remove_rec(in->right, batch + nl, n - nl, removed,
                                   par_depth - 1);
          });
    } else {
      in->left = remove_rec(in->left, batch, nl, removed, 0);
      in->right = remove_rec(in->right, batch + nl, n - nl, removed, 0);
    }
    if (in->left == nullptr || in->right == nullptr) {
      Node* only = in->left != nullptr ? in->left : in->right;
      delete in;
      return only;
    }
    in->size = in->left->size + in->right->size;
    if (unbalanced(in)) return rebuild(in, par_depth);
    return in;
  }

  // ---- traversal ---------------------------------------------------------------

  template <typename F>
  static bool map_rec(const Node* n, F&& f) {
    if (n == nullptr) return true;
    if (n->leaf) return leaf_scan(static_cast<const LeafNode*>(n), f);
    const auto* in = static_cast<const Interior*>(n);
    if (!map_rec(in->left, f)) return false;
    return map_rec(in->right, f);
  }

  template <typename F>
  static bool range_rec(const Node* n, key_type start, key_type end, F& f) {
    if (n == nullptr) return true;
    if (n->leaf) {
      return leaf_scan(static_cast<const LeafNode*>(n), [&](key_type k) {
        if (k >= end) return false;
        if (k >= start) f(k);
        return true;
      });
    }
    const auto* in = static_cast<const Interior*>(n);
    if (start < in->pivot) {
      if (!range_rec(in->left, start, end, f)) return false;
    }
    if (end > in->pivot) return range_rec(in->right, start, end, f);
    return true;
  }

  template <typename F>
  static bool length_rec(const Node* n, key_type start, uint64_t length,
                         uint64_t& applied, F& f) {
    if (n == nullptr) return true;
    if (n->leaf) {
      return leaf_scan(static_cast<const LeafNode*>(n), [&](key_type k) {
        if (k < start) return true;
        f(k);
        return ++applied < length;
      });
    }
    const auto* in = static_cast<const Interior*>(n);
    if (start < in->pivot) {
      if (!length_rec(in->left, start, length, applied, f)) return false;
    }
    return length_rec(in->right, start, length, applied, f);
  }

  static uint64_t bytes_rec(const Node* n) {
    if (n == nullptr) return 0;
    if (n->leaf) {
      const auto* l = static_cast<const LeafNode*>(n);
      return sizeof(LeafNode) + l->bytes.capacity() +
             l->keys.capacity() * sizeof(key_type);
    }
    const auto* in = static_cast<const Interior*>(n);
    return sizeof(Interior) + bytes_rec(in->left) + bytes_rec(in->right);
  }

  bool check_rec(const Node* n, key_type* prev, bool* first,
                 bool is_root) const {
    if (n == nullptr) return is_root;  // only an empty tree has null root
    if (n->leaf) {
      const auto* l = static_cast<const LeafNode*>(n);
      if (l->size == 0 || l->size > kBlockMax) return false;
      uint64_t cnt = 0;
      bool ok = true;
      leaf_scan(l, [&](key_type k) {
        if (!*first && k <= *prev) ok = false;
        *prev = k;
        *first = false;
        ++cnt;
        return true;
      });
      return ok && cnt == l->size;
    }
    const auto* in = static_cast<const Interior*>(n);
    if (in->left == nullptr || in->right == nullptr) return false;
    if (in->size != in->left->size + in->right->size) return false;
    if (!check_rec(in->left, prev, first, false)) return false;
    if (!*first && *prev >= in->pivot) return false;
    return check_rec(in->right, prev, first, false);
  }

  Node* root_ = nullptr;
};

using UPacTree = PacTree<false>;
using CPacTree = PacTree<true>;

}  // namespace cpma::baselines
