// Uncompressed leaf policy: packed-left sorted 64-bit keys, empty cells are
// 0 (which is why key 0 is handled out-of-band by the engine). The policy
// reports occupancy in bytes so the engine's density math is shared with the
// compressed policy.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "util/uninitialized.hpp"

namespace cpma::pma {

struct UncompressedLeaf {
  using key_type = uint64_t;
  static constexpr const char* name = "pma";
  static constexpr bool compressed = false;
  // Content-coordinate cost of a leaf's first key (one cell).
  static constexpr size_t kHeadBytes = 8;
  // Worst-case byte growth of one insert(): one new cell.
  static constexpr size_t kMaxInsertGrowth = 8;

  static const uint64_t* cells(const uint8_t* leaf) {
    return reinterpret_cast<const uint64_t*>(leaf);
  }
  static uint64_t* cells(uint8_t* leaf) {
    return reinterpret_cast<uint64_t*>(leaf);
  }

  // Number of occupied cells: packed-left, so it's the index of the first
  // zero cell (linear scan; leaves are O(log n) cells).
  static uint64_t element_count(const uint8_t* leaf, size_t cap) {
    const uint64_t* c = cells(leaf);
    uint64_t n = cap / 8;
    uint64_t i = 0;
    while (i < n && c[i] != 0) ++i;
    return i;
  }

  static size_t used_bytes(const uint8_t* leaf, size_t cap) {
    return element_count(leaf, cap) * 8;
  }

  static uint64_t head(const uint8_t* leaf) { return cells(leaf)[0]; }

  // Forward-only lower-bound cursor: the policy's one point-search loop.
  // seek(k) returns the smallest stored key >= k, or nullopt once the leaf
  // is exhausted; successive targets must be non-decreasing. The cell index
  // only moves forward and stops ON the answer, so a repeated target costs
  // one compare.
  class SeekCursor {
   public:
    SeekCursor(const uint8_t* leaf, size_t cap)
        : c_(cells(leaf)), n_(cap / 8) {}

    std::optional<uint64_t> seek(uint64_t key) {
      while (i_ < n_ && c_[i_] != 0 && c_[i_] < key) ++i_;
      if (i_ < n_ && c_[i_] != 0) return c_[i_];
      return std::nullopt;
    }

   private:
    const uint64_t* c_;
    uint64_t n_;
    uint64_t i_ = 0;
  };

  static bool contains(const uint8_t* leaf, size_t cap, uint64_t key) {
    return SeekCursor(leaf, cap).seek(key) == key;
  }

  // Smallest stored key >= `key`, if any.
  static std::optional<uint64_t> lower_bound(const uint8_t* leaf, size_t cap,
                                             uint64_t key) {
    return SeekCursor(leaf, cap).seek(key);
  }

  // Inserts `key`; returns false if already present. Precondition: the leaf
  // has at least one free cell (the engine's slack invariant guarantees it).
  static bool insert(uint8_t* leaf, size_t cap, uint64_t key) {
    uint64_t* c = cells(leaf);
    uint64_t n = cap / 8;
    uint64_t i = 0;
    while (i < n && c[i] != 0 && c[i] < key) ++i;
    assert(i < n);
    if (c[i] == key) return false;
    // Shift the tail right by one cell to open the slot.
    uint64_t cnt = i;
    while (cnt < n && c[cnt] != 0) ++cnt;
    assert(cnt < n);
    std::memmove(c + i + 1, c + i, (cnt - i) * 8);
    c[i] = key;
    return true;
  }

  static bool remove(uint8_t* leaf, size_t cap, uint64_t key) {
    uint64_t* c = cells(leaf);
    uint64_t n = cap / 8;
    uint64_t i = 0;
    while (i < n && c[i] != 0 && c[i] < key) ++i;
    if (i >= n || c[i] != key) return false;
    uint64_t cnt = i;
    while (cnt < n && c[cnt] != 0) ++cnt;
    std::memmove(c + i, c + i + 1, (cnt - 1 - i) * 8);
    c[cnt - 1] = 0;
    return true;
  }

  // Reusable scratch for merge_tail (the engine keeps one per worker).
  struct MergeBuf {
    util::uvector<uint64_t> keys;
  };

  // Merges the sorted batch slice keys[0..k) into the leaf by rewriting only
  // the cell suffix from the first splice point (mirror of the compressed
  // policy's byte splice). Returns false (leaf unmodified) when the caller
  // must materialize instead: empty leaf, batch key below the head, or
  // overflow past max_bytes.
  static bool merge_tail(uint8_t* leaf, size_t cap, const uint64_t* keys,
                         size_t k, size_t max_bytes, MergeBuf& buf,
                         size_t* need_out, uint64_t* added_out) {
    uint64_t* c = cells(leaf);
    const uint64_t cap_cells = cap / 8;
    if (c[0] == 0 || keys[0] < c[0]) return false;
    // First cell >= keys[0] or empty; the predicate is monotone because the
    // occupied prefix is sorted and the zero tail follows it. No up-front
    // element count: the merge below stops at the first empty cell.
    const uint64_t i0 = static_cast<uint64_t>(
        std::partition_point(c, c + cap_cells,
                             [&](uint64_t v) {
                               return v != 0 && v < keys[0];
                             }) -
        c);
    auto& out = buf.keys;
    out.resize((cap_cells - i0) + k);
    uint64_t* op = out.data();
    size_t o = 0;
    uint64_t last = 0;  // keys are >= 1, so 0 is a safe dedupe sentinel
    uint64_t added = 0;
    uint64_t ei = i0;
    size_t bi = 0;
    while (ei < cap_cells && c[ei] != 0 && bi < k) {
      if (c[ei] <= keys[bi]) {
        if (c[ei] == keys[bi]) ++bi;
        last = c[ei];
        op[o++] = c[ei++];
      } else {
        if (keys[bi] != last) {
          last = keys[bi];
          op[o++] = last;
          ++added;
        }
        ++bi;
      }
    }
    while (ei < cap_cells && c[ei] != 0) op[o++] = c[ei++];
    for (; bi < k; ++bi) {
      if (keys[bi] != last) {
        last = keys[bi];
        op[o++] = last;
        ++added;
      }
    }
    const size_t need = (i0 + o) * 8;
    if (need > max_bytes) return false;
    std::memcpy(c + i0, op, o * 8);
    const size_t old_used = ei * 8;  // ei stopped at the first empty cell
    if (old_used > need) std::memset(leaf + need, 0, old_used - need);
    *need_out = need;
    *added_out = added;
    return true;
  }

  // Subtracts the sorted batch slice keys[0..k) from the leaf by compacting
  // only the cell suffix from the first removable key (mirror of the
  // compressed policy's byte splice; removal never grows, so the compaction
  // is done in place and `buf` goes unused). The only refusal (false, leaf
  // unmodified) is an empty leaf; *removed_out == 0 also means untouched.
  static bool remove_tail(uint8_t* leaf, size_t cap, const uint64_t* keys,
                          size_t k, MergeBuf& /*buf*/, size_t* need_out,
                          uint64_t* removed_out) {
    uint64_t* c = cells(leaf);
    const uint64_t cap_cells = cap / 8;
    if (c[0] == 0) return false;
    size_t j = static_cast<size_t>(
        std::lower_bound(keys, keys + k, c[0]) - keys);
    if (j == k) {
      *removed_out = 0;
      return true;
    }
    // First cell >= keys[j] (monotone: sorted occupied prefix, zero tail).
    const uint64_t i0 = static_cast<uint64_t>(
        std::partition_point(c, c + cap_cells,
                             [&](uint64_t v) {
                               return v != 0 && v < keys[j];
                             }) -
        c);
    uint64_t w = i0;
    uint64_t removed = 0;
    uint64_t r = i0;
    for (; r < cap_cells && c[r] != 0; ++r) {
      while (j < k && keys[j] < c[r]) ++j;
      if (j < k && keys[j] == c[r]) {
        ++removed;
        continue;
      }
      c[w++] = c[r];
    }
    if (removed == 0) {
      *removed_out = 0;
      return true;
    }
    std::memset(c + w, 0, (r - w) * 8);
    *need_out = w * 8;
    *removed_out = removed;
    return true;
  }

  // ---- direct-spread resize primitives ------------------------------------
  // Content offsets are cell offsets: key r lives at byte 8*r (offset 0 is
  // the head, which for this policy is just the first cell). Copy ranges are
  // raw memcpy; nothing re-encodes at joins.

  struct SpreadPoint {
    size_t off = 0;
    size_t next = 0;
    uint64_t key = 0;
  };

  // One-pass split emitter (mirror of the compressed policy's; here every
  // "walk" is O(1) cell indexing). `base`/`limit` bound the leaf's absolute
  // content-coordinate range, so limit - base is its used byte count.
  class SpreadSeeker {
   public:
    SpreadSeeker(const uint8_t* leaf, size_t /*cap*/) : c_(cells(leaf)) {}

    template <typename Emit>
    uint64_t split_targets(uint64_t base, uint64_t budget, uint64_t j,
                           uint64_t limit, Emit&& emit) {
      const uint64_t used = limit - base;
      for (; j * budget < limit; ++j) {
        size_t target = static_cast<size_t>(j * budget - base);
        uint64_t r = (target + 7) / 8;
        if (r * 8 >= used) {
          emit(j, SpreadPoint{}, true);
        } else {
          emit(j, SpreadPoint{r * 8, r * 8 + 8, c_[r]}, false);
        }
      }
      return c_[used / 8 - 1];  // the leaf's last key
    }

   private:
    const uint64_t* c_;
  };

  struct SpreadWriter {
    uint8_t* dst = nullptr;
    size_t cap = 0;
    size_t pos = 0;
    uint64_t last = 0;
  };

  static void spread_begin(SpreadWriter& w, uint8_t* dst, size_t cap,
                           uint64_t first_key) {
    w.dst = dst;
    w.cap = cap;
    std::memcpy(dst, &first_key, 8);
    w.pos = 8;
    w.last = first_key;
  }

  static void spread_copy_tail(SpreadWriter& w, const uint8_t* src,
                               size_t from, size_t to) {
    assert(from >= 8 && to >= from);
    assert(w.pos + (to - from) <= w.cap);
    std::memcpy(w.dst + w.pos, src + from, to - from);
    w.pos += to - from;
  }

  static void spread_join(SpreadWriter& w, const uint8_t* src,
                          uint64_t src_head, size_t to) {
    assert(w.pos + 8 <= w.cap);
    std::memcpy(w.dst + w.pos, &src_head, 8);
    w.pos += 8;
    w.last = src_head;
    spread_copy_tail(w, src, 8, to);
  }

  static void spread_append_keys(SpreadWriter& w, const uint64_t* keys,
                                 size_t n) {
    assert(w.pos + n * 8 <= w.cap);
    if (n != 0) std::memcpy(w.dst + w.pos, keys, n * 8);
    w.pos += n * 8;
    if (n != 0) w.last = keys[n - 1];
  }

  static size_t spread_finish(SpreadWriter& w) {
    assert(w.pos <= w.cap);
    std::memset(w.dst + w.pos, 0, w.cap - w.pos);
    return w.pos;
  }

  static void decode_append(const uint8_t* leaf, size_t cap,
                            std::vector<uint64_t>& out) {
    const uint64_t* c = cells(leaf);
    uint64_t n = cap / 8;
    for (uint64_t i = 0; i < n && c[i] != 0; ++i) out.push_back(c[i]);
  }

  // Bulk decode into a caller-sized buffer (must hold element_count keys);
  // returns the number of keys written.
  static size_t decode_to(const uint8_t* leaf, size_t cap, uint64_t* out) {
    size_t n = element_count(leaf, cap);
    if (n != 0) std::memcpy(out, cells(leaf), n * 8);
    return n;
  }

  // Bytes `write` would use for these keys.
  static size_t encoded_size(const uint64_t* /*keys*/, size_t n) {
    return n * 8;
  }

  // Overwrites the leaf with keys[0..n); zero-fills the tail.
  static void write(uint8_t* leaf, size_t cap, const uint64_t* keys,
                    size_t n) {
    assert(n * 8 <= cap);
    // keys may be null when n == 0; memcpy forbids null even for size 0.
    if (n != 0) std::memcpy(leaf, keys, n * 8);
    std::memset(leaf + n * 8, 0, cap - n * 8);
  }

  static uint64_t sum_leaf(const uint8_t* leaf, size_t cap) {
    const uint64_t* c = cells(leaf);
    uint64_t n = cap / 8;
    uint64_t s = 0;
    for (uint64_t i = 0; i < n && c[i] != 0; ++i) s += c[i];
    return s;
  }

  static uint64_t last(const uint8_t* leaf, size_t cap) {
    const uint64_t* c = cells(leaf);
    uint64_t n = element_count(leaf, cap);
    return n == 0 ? 0 : c[n - 1];
  }

  // Applies f(key) in order; f returns false to stop. Returns false if
  // stopped early.
  template <typename F>
  static bool map(const uint8_t* leaf, size_t cap, F&& f) {
    const uint64_t* c = cells(leaf);
    uint64_t n = cap / 8;
    for (uint64_t i = 0; i < n && c[i] != 0; ++i) {
      if (!f(c[i])) return false;
    }
    return true;
  }

  // Streaming cursor for the engine's iterators.
  struct Cursor {
    uint64_t pos = 0;
    uint64_t value = 0;
  };

  static bool cursor_begin(const uint8_t* leaf, size_t cap, Cursor& cur) {
    const uint64_t* c = cells(leaf);
    if (cap == 0 || c[0] == 0) return false;
    cur.pos = 0;
    cur.value = c[0];
    return true;
  }

  static bool cursor_next(const uint8_t* leaf, size_t cap, Cursor& cur) {
    const uint64_t* c = cells(leaf);
    uint64_t n = cap / 8;
    if (cur.pos + 1 >= n || c[cur.pos + 1] == 0) return false;
    ++cur.pos;
    cur.value = c[cur.pos];
    return true;
  }

  // Block-streaming decode for the engine's merge paths (mirror of the
  // compressed policy's kernel-backed cursor): copies runs of occupied
  // cells. Returns 0 at end.
  struct BlockCursor {
    uint64_t idx = 0;
  };

  static size_t block_next(const uint8_t* leaf, size_t cap, BlockCursor& bc,
                           uint64_t* out, size_t max) {
    const uint64_t* c = cells(leaf);
    uint64_t n = cap / 8;
    size_t k = 0;
    while (k < max && bc.idx < n && c[bc.idx] != 0) out[k++] = c[bc.idx++];
    return k;
  }
};

}  // namespace cpma::pma
