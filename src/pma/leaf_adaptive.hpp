// Adaptive leaf policy: per-leaf codec selection over three formats.
//
// Layout: [8-byte head][1-byte format tag][body...]. The tag is part of the
// leaf header (kHeadBytes = 9), so every format's body starts at offset 9
// and a zero-filled leaf is a valid empty byte-varint leaf (tag 0). The
// varint formats delegate to CompressedLeaf<Codec, 9>, which leaves the tag
// byte untouched (its writes cover [0,8) and [9,cap)); the bitmap format is
// implemented here on top of codec/bitmap_leaf.hpp.
//
// Formats:
//   0 byte-varint   — the canonical format (CompressedLeaf<ByteVarintCodec>)
//   1 group-varint  — control-byte codes, wins on multi-byte-delta leaves
//   2 bitmap        — window/word pairs, wins on dense runs (~1 bit/key)
//
// CANONICAL-COST INVARIANT: all engine planning (delta_bytes, encoded_size,
// spread budgets, overflow accounting) quotes byte-varint cost. write()
// selects a non-canonical format only when its exact encoded size is no
// larger than the canonical size, so a materialized leaf never exceeds the
// bytes the engine budgeted for it. Mutations preserve the property: varint
// leaves grow exactly as CompressedLeaf does, bitmap point ops grow by at
// most kMaxInsertGrowth, and bitmap remove_tail re-encodes in bitmap format
// (a subset never encodes larger). Direct-spread byte stitching, whose cost
// model is also canonical, is only exact for byte-varint content — the
// engine refuses direct spreads when other formats are present and takes
// the pack+rebuild path, which re-selects formats anyway (pma_impl.hpp).
//
// Selection (write()): exact encoded sizes of all three formats are
// computed and the bitmap is chosen when its size beats the canonical size
// by adaptive_bitmap_margin(); group-varint is attempted when canonical
// body bytes per key reach adaptive_gv_bytes_per_key(). CPMA_FORCE_CODEC
// pins the choice (still subject to the exact-size check). The same gates
// drive Packer, the block-summary packer the engine uses to cut leaves by
// physical (selected-format) bytes during spread/rebuild, which hands each
// leaf's format to write_format directly.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "codec/bitmap_leaf.hpp"
#include "codec/delta_stream.hpp"
#include "codec/group_varint.hpp"
#include "parallel/scan.hpp"
#include "parallel/scheduler.hpp"
#include "pma/leaf_compressed.hpp"
#include "pma/settings.hpp"

namespace cpma::pma {

struct AdaptiveLeaf {
  using key_type = uint64_t;
  using BV = CompressedLeaf<codec::ByteVarintCodec, 9>;
  using GV = CompressedLeaf<codec::GroupVarintCodec, 9>;
  static constexpr const char* name = "acpma";
  static constexpr bool compressed = true;
  static constexpr size_t kHeadBytes = 9;
  // Wider than the single-codec leaves so the bitmap full-window fast path
  // (64 keys per pair) can land several whole windows per block_next call;
  // at the byte-varint default of 64 the head alone leaves room for < 1.
  static constexpr size_t kBlockKeys = 256;
  // Byte-varint dominates: a split delta (19) beats group-varint's (17) and
  // the bitmap's worst case (a displaced-head pair insert plus a first-pair
  // window rebase, <= 18).
  static constexpr size_t kMaxInsertGrowth = BV::kMaxInsertGrowth;

  enum Format : uint8_t { kByteVarint = 0, kGroupVarint = 1, kBitmap = 2 };
  static uint8_t format_of(const uint8_t* leaf) { return leaf[8]; }

  static uint64_t head(const uint8_t* leaf) {
    uint64_t h;
    std::memcpy(&h, leaf, 8);
    return h;
  }
  static void set_head(uint8_t* leaf, uint64_t h) { std::memcpy(leaf, &h, 8); }

  // Canonical (byte-varint) cost model — see the invariant above.
  static constexpr size_t delta_bytes(key_type prev, key_type key) {
    return BV::delta_bytes(prev, key);
  }
  static size_t encoded_size(const uint64_t* keys, size_t n) {
    return BV::encoded_size(keys, n);
  }

  // ---- bitmap body access ---------------------------------------------------

  static const uint8_t* body(const uint8_t* leaf) { return leaf + kHeadBytes; }
  static uint8_t* body(uint8_t* leaf) { return leaf + kHeadBytes; }

  static codec::bitmap::PairReader pairs(const uint8_t* leaf, size_t cap) {
    return codec::bitmap::PairReader(body(leaf), cap - kHeadBytes,
                                     codec::bitmap::window(head(leaf)));
  }

  // ---- reads ----------------------------------------------------------------

  static size_t used_bytes(const uint8_t* leaf, size_t cap) {
    switch (leaf[8]) {
      case kGroupVarint:
        return GV::used_bytes(leaf, cap);
      case kBitmap: {
        if (head(leaf) == 0) return 0;
        return kHeadBytes + codec::bitmap::body_used(body(leaf),
                                                     cap - kHeadBytes);
      }
      default:
        return BV::used_bytes(leaf, cap);
    }
  }

  static uint64_t element_count(const uint8_t* leaf, size_t cap) {
    switch (leaf[8]) {
      case kGroupVarint:
        return GV::element_count(leaf, cap);
      case kBitmap: {
        if (head(leaf) == 0) return 0;
        uint64_t n = 1;
        auto r = pairs(leaf, cap);
        while (r.next()) n += static_cast<uint64_t>(__builtin_popcountll(r.word()));
        return n;
      }
      default:
        return BV::element_count(leaf, cap);
    }
  }

  // Bitmap lower-bound cursor. `word_` holds the current pair's bits at or
  // above the current candidate (0 before the first pair), so seek hops
  // whole pairs while their window lies below window(key), then masks the
  // target's window at its bit and takes the ctz, rolling over to the next
  // pair when nothing is left at or above the target.
  class BitmapSeekCursor {
   public:
    BitmapSeekCursor(const uint8_t* leaf, size_t cap)
        : cur_(head(leaf)), done_(cur_ == 0), r_(pairs(leaf, cap)) {}

    std::optional<uint64_t> seek(uint64_t key) {
      namespace bm = codec::bitmap;
      if (done_) return std::nullopt;
      if (cur_ >= key) return cur_;
      const uint64_t wk = bm::window(key);
      while (true) {
        // Stored words are never empty, so a pair past wk answers with its
        // lowest bit; before the first pair win() is window(head) <= wk.
        uint64_t word = word_;
        if (r_.win() == wk) word &= ~uint64_t{0} << bm::bit_of(key);
        if (r_.win() >= wk && word != 0) {
          word_ = word;
          cur_ = (r_.win() << 6) | static_cast<unsigned>(__builtin_ctzll(word));
          return cur_;
        }
        if (!r_.next()) {
          done_ = true;
          return std::nullopt;
        }
        word_ = r_.word();
      }
    }

   private:
    uint64_t cur_;
    bool done_;
    codec::bitmap::PairReader r_;
    uint64_t word_ = 0;
  };

  // Forward-only lower-bound cursor over any format: the tag is read once at
  // construction and the varint formats reuse CompressedLeaf's cursor.
  // seek(k) returns the smallest stored key >= k, or nullopt once the leaf
  // is exhausted; successive targets must be non-decreasing. All three
  // cursors are built (a few stores each, nothing decoded) so the object is
  // fully initialized whatever the tag, unlike a std::variant, whose
  // inactive alternatives GCC 12 flags as maybe-uninitialized.
  class SeekCursor {
   public:
    SeekCursor(const uint8_t* leaf, size_t cap)
        : fmt_(leaf[8]), bv_(leaf, cap), gv_(leaf, cap), bm_(leaf, cap) {}

    std::optional<uint64_t> seek(uint64_t key) {
      switch (fmt_) {
        case kGroupVarint:
          return gv_.seek(key);
        case kBitmap:
          return bm_.seek(key);
        default:
          return bv_.seek(key);
      }
    }

   private:
    uint8_t fmt_;
    BV::SeekCursor bv_;
    GV::SeekCursor gv_;
    BitmapSeekCursor bm_;
  };

  static bool contains(const uint8_t* leaf, size_t cap, uint64_t key) {
    return SeekCursor(leaf, cap).seek(key) == key;
  }

  static std::optional<uint64_t> lower_bound(const uint8_t* leaf, size_t cap,
                                             uint64_t key) {
    return SeekCursor(leaf, cap).seek(key);
  }

  template <typename F>
  static bool map(const uint8_t* leaf, size_t cap, F&& f) {
    switch (leaf[8]) {
      case kGroupVarint:
        return GV::map(leaf, cap, f);
      case kBitmap: {
        uint64_t h = head(leaf);
        if (h == 0) return true;
        if (!f(h)) return false;
        auto r = pairs(leaf, cap);
        while (r.next()) {
          uint64_t word = r.word();
          const uint64_t base = r.win() << 6;
          if (word == ~uint64_t{0}) {
            for (unsigned i = 0; i < 64; ++i) {
              if (!f(base + i)) return false;
            }
            continue;
          }
          while (word) {
            if (!f(base | static_cast<unsigned>(__builtin_ctzll(word)))) {
              return false;
            }
            word &= word - 1;
          }
        }
        return true;
      }
      default:
        return BV::map(leaf, cap, f);
    }
  }

  static uint64_t sum_leaf(const uint8_t* leaf, size_t cap) {
    switch (leaf[8]) {
      case kGroupVarint:
        return GV::sum_leaf(leaf, cap);
      case kBitmap: {
        uint64_t sum = 0;
        map(leaf, cap, [&](uint64_t k) {
          sum += k;
          return true;
        });
        return sum;
      }
      default:
        return BV::sum_leaf(leaf, cap);
    }
  }

  static uint64_t last(const uint8_t* leaf, size_t cap) {
    switch (leaf[8]) {
      case kGroupVarint:
        return GV::last(leaf, cap);
      case kBitmap: {
        uint64_t h = head(leaf);
        if (h == 0) return 0;
        uint64_t v = h;
        auto r = pairs(leaf, cap);
        while (r.next()) {
          v = (r.win() << 6) |
              static_cast<unsigned>(63 - __builtin_clzll(r.word()));
        }
        return v;
      }
      default:
        return BV::last(leaf, cap);
    }
  }

  static void decode_append(const uint8_t* leaf, size_t cap,
                            std::vector<uint64_t>& out) {
    switch (leaf[8]) {
      case kGroupVarint:
        GV::decode_append(leaf, cap, out);
        return;
      case kBitmap:
        map(leaf, cap, [&](uint64_t k) {
          out.push_back(k);
          return true;
        });
        return;
      default:
        BV::decode_append(leaf, cap, out);
        return;
    }
  }

  static size_t decode_to(const uint8_t* leaf, size_t cap, uint64_t* out) {
    switch (leaf[8]) {
      case kGroupVarint:
        return GV::decode_to(leaf, cap, out);
      case kBitmap: {
        size_t n = 0;
        map(leaf, cap, [&](uint64_t k) {
          out[n++] = k;
          return true;
        });
        return n;
      }
      default:
        return BV::decode_to(leaf, cap, out);
    }
  }

  // ---- point mutations ------------------------------------------------------

  static bool insert(uint8_t* leaf, size_t cap, uint64_t key) {
    switch (leaf[8]) {
      case kGroupVarint:
        return GV::insert(leaf, cap, key);
      case kBitmap:
        return insert_bitmap(leaf, cap, key);
      default:
        return BV::insert(leaf, cap, key);
    }
  }

  static bool remove(uint8_t* leaf, size_t cap, uint64_t key) {
    switch (leaf[8]) {
      case kGroupVarint:
        return GV::remove(leaf, cap, key);
      case kBitmap:
        return remove_bitmap(leaf, cap, key);
      default:
        return BV::remove(leaf, cap, key);
    }
  }

 private:
  // Replaces body bytes [off, off+old_len) with rep[0, new_len), shifting the
  // tail and zero-filling any freed suffix. `used` is the body's used bytes.
  static void splice_body(uint8_t* b, size_t bcap, size_t used, size_t off,
                          size_t old_len, const uint8_t* rep, size_t new_len) {
    assert(off + old_len <= used && used - old_len + new_len <= bcap);
    (void)bcap;
    std::memmove(b + off + new_len, b + off + old_len, used - off - old_len);
    if (new_len != 0) std::memcpy(b + off, rep, new_len);
    if (new_len < old_len) {
      std::memset(b + used - (old_len - new_len), 0, old_len - new_len);
    }
  }

  static bool insert_bitmap(uint8_t* leaf, size_t cap, uint64_t key) {
    namespace bm = codec::bitmap;
    uint64_t h = head(leaf);
    uint8_t* b = body(leaf);
    const size_t bcap = cap - kHeadBytes;
    if (key == h) return false;
    if (key < h) {
      // key becomes the head; the old head becomes a bit. The first pair's
      // window delta rebases from window(h) to window(key).
      const size_t used = bm::body_used(b, bcap);
      uint8_t tmp[2 * bm::kMaxPairBytes];
      size_t tlen;
      size_t old_len;
      if (used == 0) {
        old_len = 0;
        tlen = bm::store_pair(tmp, bm::window(h) - bm::window(key),
                              bm::bit_mask(h));
      } else {
        bm::Pair f = bm::load_pair(b);
        old_len = f.len;
        const uint64_t w1 = bm::window(h) + f.wdelta;
        if (w1 == bm::window(h)) {
          tlen = bm::store_pair(tmp, w1 - bm::window(key),
                                f.word | bm::bit_mask(h));
        } else {
          tlen = bm::store_pair(tmp, bm::window(h) - bm::window(key),
                                bm::bit_mask(h));
          tlen += bm::store_pair(tmp + tlen, f.wdelta, f.word);
        }
      }
      splice_body(b, bcap, used, 0, old_len, tmp, tlen);
      set_head(leaf, key);
      return true;
    }
    const uint64_t wk = bm::window(key);
    uint64_t prev_w = bm::window(h);
    bm::PairReader r(b, bcap, prev_w);
    while (r.next()) {
      if (r.win() == wk) {
        if (r.word() & bm::bit_mask(key)) return false;
        const uint64_t nw = r.word() | bm::bit_mask(key);
        std::memcpy(b + r.pair_end() - 8, &nw, 8);
        return true;
      }
      if (r.win() > wk) {
        // New pair before this one; this pair's delta re-chains from wk.
        const size_t used = bm::body_used(b, bcap);
        uint8_t tmp[2 * bm::kMaxPairBytes];
        size_t tlen = bm::store_pair(tmp, wk - prev_w, bm::bit_mask(key));
        tlen += bm::store_pair(tmp + tlen, r.win() - wk, r.word());
        splice_body(b, bcap, used, r.pair_off(),
                    r.pair_end() - r.pair_off(), tmp, tlen);
        return true;
      }
      prev_w = r.win();
    }
    // Largest window: append (pair_off() is the terminator offset here).
    uint8_t tmp[bm::kMaxPairBytes];
    const size_t tlen = bm::store_pair(tmp, wk - prev_w, bm::bit_mask(key));
    assert(r.pair_off() + tlen <= bcap);
    std::memcpy(b + r.pair_off(), tmp, tlen);
    return true;
  }

  static bool remove_bitmap(uint8_t* leaf, size_t cap, uint64_t key) {
    namespace bm = codec::bitmap;
    uint64_t h = head(leaf);
    if (h == 0 || key < h) return false;
    uint8_t* b = body(leaf);
    const size_t bcap = cap - kHeadBytes;
    if (key == h) {
      if (bcap == 0 || b[0] == 0) {  // only element: clear head AND tag
        std::memset(leaf, 0, kHeadBytes);
        return true;
      }
      // Promote the first bit of the first pair into the head; its window
      // delta rebases to 0 (the new head lives in that same window).
      bm::Pair f = bm::load_pair(b);
      const uint64_t w1 = bm::window(h) + f.wdelta;
      const uint64_t nh =
          (w1 << 6) | static_cast<unsigned>(__builtin_ctzll(f.word));
      const uint64_t nword = f.word & (f.word - 1);
      const size_t used = bm::body_used(b, bcap);
      if (nword == 0) {
        // Drop the pair; the next pair's delta chains from w1 == window(nh).
        splice_body(b, bcap, used, 0, f.len, nullptr, 0);
      } else {
        uint8_t tmp[bm::kMaxPairBytes];
        const size_t tlen = bm::store_pair(tmp, 0, nword);
        splice_body(b, bcap, used, 0, f.len, tmp, tlen);
      }
      set_head(leaf, nh);
      return true;
    }
    const uint64_t wk = bm::window(key);
    uint64_t prev_w = bm::window(h);
    bm::PairReader r(b, bcap, prev_w);
    while (r.next()) {
      if (r.win() > wk) return false;
      if (r.win() == wk) {
        if (!(r.word() & bm::bit_mask(key))) return false;
        const uint64_t nw = r.word() & ~bm::bit_mask(key);
        if (nw != 0) {
          std::memcpy(b + r.pair_end() - 8, &nw, 8);
          return true;
        }
        // Pair emptied: drop it, merging its delta into the next pair
        // (var(a+b+1) <= var(a+1) + var(b+1) + 8, so this never grows).
        const size_t used = bm::body_used(b, bcap);
        const size_t off = r.pair_off();
        const size_t len = r.pair_end() - off;
        const uint64_t a = r.win() - prev_w;
        if (r.pair_end() < bcap && b[r.pair_end()] != 0) {
          bm::Pair nx = bm::load_pair(b + r.pair_end());
          uint8_t tmp[bm::kMaxPairBytes];
          const size_t tlen = bm::store_pair(tmp, a + nx.wdelta, nx.word);
          splice_body(b, bcap, used, off, len + nx.len, tmp, tlen);
        } else {
          splice_body(b, bcap, used, off, len, nullptr, 0);
        }
        return true;
      }
      prev_w = r.win();
    }
    return false;
  }

 public:
  // ---- materialized writes (format selection happens here) ------------------

  // Selection gates shared by select_format (array form) and Packer
  // (range-sum form). All sizes are exact encoded sizes including the
  // kHeadBytes header; the chosen format's size never exceeds the canonical
  // (byte-varint) size, which batch planning quotes as the upper bound.
  static uint8_t choose_format(size_t n, size_t canonical, size_t bmsz,
                               size_t gvsz, size_t cap) {
    if (n < 2) return kByteVarint;
    const ForcedCodec force = forced_codec();
    if (force == ForcedCodec::kByteVarint) return kByteVarint;
    if (force == ForcedCodec::kBitmap ||
        (force == ForcedCodec::kNone &&
         static_cast<double>(bmsz) * adaptive_bitmap_margin() <=
             static_cast<double>(canonical))) {
      if (bmsz <= canonical && bmsz <= cap) return kBitmap;
    }
    if (force == ForcedCodec::kGroupVarint ||
        (force == ForcedCodec::kNone &&
         static_cast<double>(canonical - kHeadBytes) >=
             adaptive_gv_bytes_per_key() * static_cast<double>(n - 1))) {
      if (gvsz <= canonical && gvsz <= cap) return kGroupVarint;
    }
    return kByteVarint;
  }

  static uint8_t select_format(const uint64_t* keys, size_t n, size_t cap) {
    if (n < 2) return kByteVarint;
    return choose_format(n, BV::encoded_size(keys, n),
                         kHeadBytes + codec::bitmap::body_size(keys, n),
                         GV::encoded_size(keys, n), cap);
  }

  // ---- physical packing -----------------------------------------------------
  // The engine packs leaves by the size a slice ACTUALLY materializes at
  // (its selected format), not by its canonical byte-varint cost: physical
  // packing is what lets dense regions keep their bitmap-compressed footprint
  // through redistributes and resizes.
  //
  // Every format's body is a sum of per-key terms, each a function of the
  // key and its predecessor: byte- and group-varint pay their delta's code;
  // the bitmap pays pair_bytes(window delta) when the key opens a new window
  // and nothing when it only sets a bit. The one exception is the key right
  // after a leaf head, which always opens a pair (delta 0 if it shares the
  // head's window). So an exact size of any slice is a range sum plus that
  // boundary term, and range sums over fixed blocks can be precomputed in
  // parallel once per stream.

  struct FormatBytes {
    uint64_t bv = 0, gv = 0, bm = 0;  // body bytes per format
    FormatBytes& operator+=(const FormatBytes& o) {
      bv += o.bv;
      gv += o.gv;
      bm += o.bm;
      return *this;
    }
    FormatBytes& operator-=(const FormatBytes& o) {
      bv -= o.bv;
      gv -= o.gv;
      bm -= o.bm;
      return *this;
    }
    uint64_t min() const { return std::min({bv, gv, bm}); }
  };

  // Body bytes key `key` adds after `prev` in the same leaf; `after_head`
  // marks the first key after the head.
  static FormatBytes key_bytes(uint64_t prev, uint64_t key, bool after_head) {
    namespace bm = codec::bitmap;
    const uint64_t d = key - prev;
    const uint64_t dw = bm::window(key) - bm::window(prev);
    return {codec::ByteVarintCodec::size(d), codec::GroupVarintCodec::size(d),
            (after_head || dw != 0) ? bm::pair_bytes(dw) : 0};
  }

  // One leaf of a packing: keys [begin, next leaf's begin), written in
  // `fmt` at exactly `bytes` (== used_bytes after write_format).
  struct PackedLeaf {
    uint64_t begin;
    uint64_t bytes;
    uint8_t fmt;
  };

  // Block-summary packer over one sorted stream. Construction computes each
  // 64-key block's three format sums in parallel and prefix-sums them; pack()
  // then cuts greedy leaves with O(64) serial work per leaf instead of a walk
  // over every key.
  class Packer {
   public:
    static constexpr uint64_t kBlock = 64;
    // Blocks per task of the summary pass: streams below 8192 keys are
    // summarized inline, without forking (engine arenas rely on this).
    static constexpr uint64_t kGrainBlocks = 8192 / kBlock;

    Packer(const uint64_t* keys, uint64_t n, size_t cap)
        : keys_(keys),
          n_(n),
          cap_(cap),
          prefix_((n + kBlock - 1) / kBlock + 1) {
      const uint64_t nb = prefix_.size() - 1;
      par::parallel_for(0, nb, [&](uint64_t b) {
        FormatBytes sum;
        const uint64_t end = std::min(n_, (b + 1) * kBlock);
        for (uint64_t i = std::max<uint64_t>(b * kBlock, 1); i < end; ++i) {
          sum += key_bytes(keys_[i - 1], keys_[i], false);
        }
        prefix_[b] = sum;
      }, kGrainBlocks);
      prefix_[nb] = FormatBytes{};
      par::exclusive_scan_inplace(prefix_);
    }

    // Encoded size of the whole stream as one byte-varint run (the
    // canonical cost spread budgets quote).
    uint64_t canonical_bytes() const {
      return n_ == 0 ? 0 : kHeadBytes + prefix_.back().bv;
    }

    // Greedy packing at `budget` bytes per leaf: each leaf is the longest
    // slice from its first key whose selected-format size fits. Returns
    // {leaves, physical bytes}; appends every leaf to `out` when given.
    std::pair<uint64_t, uint64_t> pack(uint64_t budget,
                                       std::vector<PackedLeaf>* out = nullptr)
        const {
      uint64_t leaves = 0, phys = 0;
      for (uint64_t s = 0; s < n_;) {
        PackedLeaf leaf{s, 0, kByteVarint};
        s = cut(s, budget, leaf);
        if (out != nullptr) out->push_back(leaf);
        phys += leaf.bytes;
        ++leaves;
      }
      return {leaves, phys};
    }

   private:
    // Cuts the leaf starting at key s; fills leaf.fmt/bytes and returns one
    // past its last key.
    uint64_t cut(uint64_t s, uint64_t budget, PackedLeaf& leaf) const {
      // The smallest of the three sizes only grows as keys are appended, so
      // it bounds the cut from above; the selected size is not monotone
      // (choose_format can switch formats), so the last step walks back.
      auto fits = [&](const FormatBytes& b) {
        return kHeadBytes + b.min() <= budget;
      };
      FormatBytes b;  // body bytes of keys [s, e)
      uint64_t e = s + 1;
      bool open = true;  // the minimum still fits
      // Key by key up to the next block boundary (always at least the key
      // after the head, whose bitmap term is the boundary exception).
      for (; e < n_ && (e == s + 1 || e % kBlock != 0); ++e) {
        FormatBytes t = b;
        t += key_bytes(keys_[e - 1], keys_[e], e == s + 1);
        if (!fits(t)) {
          open = false;
          break;
        }
        b = t;
      }
      if (open) {
        // Whole blocks while the minimum stays within budget...
        while (e < n_) {
          const uint64_t blk = e / kBlock;
          FormatBytes t = b;
          t += prefix_[blk + 1];
          t -= prefix_[blk];
          if (!fits(t)) break;
          b = t;
          e = std::min(n_, e + kBlock);
        }
        // ...then key by key inside the block where it runs out.
        for (; e < n_; ++e) {
          FormatBytes t = b;
          t += key_bytes(keys_[e - 1], keys_[e], false);
          if (!fits(t)) break;
          b = t;
        }
      }
      // Step back while the format write() would select overflows.
      for (;;) {
        const size_t bv = kHeadBytes + b.bv, gv = kHeadBytes + b.gv,
                     bms = kHeadBytes + b.bm;
        leaf.fmt = choose_format(e - s, bv, bms, gv, cap_);
        leaf.bytes = leaf.fmt == kBitmap        ? bms
                     : leaf.fmt == kGroupVarint ? gv
                                                : bv;
        if (leaf.bytes <= budget || e == s + 1) return e;
        --e;
        b -= key_bytes(keys_[e - 1], keys_[e], e == s + 1);
      }
    }

    const uint64_t* keys_;
    uint64_t n_;
    size_t cap_;
    std::vector<FormatBytes> prefix_;  // [b]: key terms of keys [1, b*kBlock)
  };

  static void write_format(uint8_t* leaf, size_t cap, const uint64_t* keys,
                           size_t n, uint8_t fmt) {
    if (n == 0) {
      std::memset(leaf, 0, cap);
      return;
    }
    switch (fmt) {
      case kGroupVarint:
        GV::write(leaf, cap, keys, n);  // leaves byte 8 untouched
        leaf[8] = kGroupVarint;
        return;
      case kBitmap: {
        set_head(leaf, keys[0]);
        leaf[8] = kBitmap;
        const size_t blen = codec::bitmap::encode_body(body(leaf), keys, n);
        assert(kHeadBytes + blen <= cap);
        std::memset(leaf + kHeadBytes + blen, 0, cap - kHeadBytes - blen);
        return;
      }
      default:
        BV::write(leaf, cap, keys, n);
        leaf[8] = kByteVarint;
        return;
    }
  }

  static void write(uint8_t* leaf, size_t cap, const uint64_t* keys,
                    size_t n) {
    write_format(leaf, cap, keys, n, select_format(keys, n, cap));
  }

  // ---- batch merge / remove -------------------------------------------------

  struct MergeBuf {
    BV::MergeBuf bv;
    GV::MergeBuf gv;
    std::vector<uint64_t> cur, next;
  };

  // Varint formats splice their suffix in place (the format is sticky under
  // merge); a bitmap leaf refuses, sending the engine down its materializing
  // path, whose write() re-selects the format for the merged run.
  static bool merge_tail(uint8_t* leaf, size_t cap, const uint64_t* keys,
                         size_t k, size_t max_bytes, MergeBuf& buf,
                         size_t* need_out, uint64_t* added_out) {
    switch (leaf[8]) {
      case kGroupVarint:
        return GV::merge_tail(leaf, cap, keys, k, max_bytes, buf.gv, need_out,
                              added_out);
      case kBitmap:
        return false;
      default:
        return BV::merge_tail(leaf, cap, keys, k, max_bytes, buf.bv, need_out,
                              added_out);
    }
  }

  // remove_tail may NOT refuse on content (the engine treats refusal as
  // "nothing to remove"), so the bitmap case materializes, subtracts, and
  // rewrites IN BITMAP FORMAT — a subset never encodes larger in the same
  // format, while the canonical format could overflow the leaf.
  static bool remove_tail(uint8_t* leaf, size_t cap, const uint64_t* keys,
                          size_t k, MergeBuf& buf, size_t* need_out,
                          uint64_t* removed_out) {
    switch (leaf[8]) {
      case kGroupVarint:
        return GV::remove_tail(leaf, cap, keys, k, buf.gv, need_out,
                               removed_out);
      case kBitmap: {
        if (head(leaf) == 0) return false;
        auto& cur = buf.cur;
        auto& next = buf.next;
        cur.clear();
        next.clear();
        decode_append(leaf, cap, cur);
        size_t j = 0;
        uint64_t removed = 0;
        for (uint64_t v : cur) {
          while (j < k && keys[j] < v) ++j;
          if (j < k && keys[j] == v) {
            ++removed;
          } else {
            next.push_back(v);
          }
        }
        if (removed == 0) {
          *removed_out = 0;
          return true;
        }
        if (next.empty()) {
          std::memset(leaf, 0, cap);
          *need_out = 0;
          *removed_out = removed;
          return true;
        }
        write_format(leaf, cap, next.data(), next.size(), kBitmap);
        *need_out = used_bytes(leaf, cap);
        *removed_out = removed;
        return true;
      }
      default:
        return BV::remove_tail(leaf, cap, keys, k, buf.bv, need_out,
                               removed_out);
    }
  }

  // ---- cursors --------------------------------------------------------------
  // pos/value mirror the varint cursors; `win` is bitmap-only state (the
  // window chain base of the pair at pos). Delegation copies pos/value
  // through the underlying policy's cursor struct.

  struct Cursor {
    size_t pos = 0;
    uint64_t value = 0;
    uint64_t win = 0;
  };

  static bool cursor_begin(const uint8_t* leaf, size_t /*cap*/, Cursor& cur) {
    uint64_t h = head(leaf);
    if (h == 0) return false;
    cur.value = h;
    cur.pos = kHeadBytes;
    cur.win = codec::bitmap::window(h);
    return true;
  }

  static bool cursor_next(const uint8_t* leaf, size_t cap, Cursor& cur) {
    switch (leaf[8]) {
      case kGroupVarint: {
        GV::Cursor c{cur.pos, cur.value};
        bool ok = GV::cursor_next(leaf, cap, c);
        cur.pos = c.pos;
        cur.value = c.value;
        return ok;
      }
      case kBitmap:
        return cursor_next_bitmap(leaf, cap, cur);
      default: {
        BV::Cursor c{cur.pos, cur.value};
        bool ok = BV::cursor_next(leaf, cap, c);
        cur.pos = c.pos;
        cur.value = c.value;
        return ok;
      }
    }
  }

  struct BlockCursor {
    size_t pos = 0;
    uint64_t value = 0;
    bool started = false;
    uint64_t win = 0;
  };

  static size_t block_next(const uint8_t* leaf, size_t cap, BlockCursor& bc,
                           uint64_t* out, size_t max) {
    switch (leaf[8]) {
      case kGroupVarint: {
        GV::BlockCursor c{bc.pos, bc.value, bc.started};
        size_t n = GV::block_next(leaf, cap, c, out, max);
        bc.pos = c.pos;
        bc.value = c.value;
        bc.started = c.started;
        return n;
      }
      case kBitmap:
        return block_next_bitmap(leaf, cap, bc, out, max);
      default: {
        BV::BlockCursor c{bc.pos, bc.value, bc.started};
        size_t n = BV::block_next(leaf, cap, c, out, max);
        bc.pos = c.pos;
        bc.value = c.value;
        bc.started = c.started;
        return n;
      }
    }
  }

 private:
  static bool cursor_next_bitmap(const uint8_t* leaf, size_t cap,
                                 Cursor& cur) {
    namespace bm = codec::bitmap;
    const uint8_t* b = body(leaf);
    const size_t bcap = cap - kHeadBytes;
    size_t pos = cur.pos - kHeadBytes;
    while (pos < bcap && b[pos] != 0) {
      bm::Pair p = bm::load_pair(b + pos);
      const uint64_t w = cur.win + p.wdelta;
      uint64_t word = p.word;
      if (w == bm::window(cur.value)) word &= bm::above_mask(cur.value);
      if (word != 0) {
        cur.value = (w << 6) | static_cast<unsigned>(__builtin_ctzll(word));
        return true;
      }
      pos += p.len;
      cur.pos = kHeadBytes + pos;
      cur.win = w;
    }
    return false;
  }

  static size_t block_next_bitmap(const uint8_t* leaf, size_t cap,
                                  BlockCursor& bc, uint64_t* out, size_t max) {
    namespace bm = codec::bitmap;
    size_t n = 0;
    if (!bc.started) {
      uint64_t h = head(leaf);
      if (h == 0) return 0;
      bc.started = true;
      bc.value = h;
      bc.pos = kHeadBytes;
      bc.win = bm::window(h);
      out[n++] = h;
    }
    const uint8_t* b = body(leaf);
    const size_t bcap = cap - kHeadBytes;
    size_t pos = bc.pos - kHeadBytes;
    while (n < max && pos < bcap && b[pos] != 0) {
      bm::Pair p = bm::load_pair(b + pos);
      const uint64_t w = bc.win + p.wdelta;
      uint64_t word = p.word;
      if (w == bm::window(bc.value)) word &= bm::above_mask(bc.value);
      if (word == ~uint64_t{0}) {
        // Full window: 64 consecutive keys, no per-bit scan. A resumed
        // (masked) word always has bit 0 cleared, so this branch only fires
        // on windows not yet touched — the dominant case in dense runs.
        const uint64_t base = w << 6;
        const size_t take = max - n < 64 ? max - n : 64;
        for (size_t i = 0; i < take; ++i) out[n + i] = base + i;
        n += take;
        bc.value = base + take - 1;
        if (take < 64) break;  // out is full mid-pair; value resumes the mask
      } else {
        while (word != 0 && n < max) {
          bc.value = (w << 6) | static_cast<unsigned>(__builtin_ctzll(word));
          out[n++] = bc.value;
          word &= word - 1;
        }
        if (word != 0) break;  // out is full mid-pair; value resumes the mask
      }
      pos += p.len;
      bc.pos = kHeadBytes + pos;
      bc.win = w;
    }
    return n;
  }

 public:
  // ---- direct-spread primitives ---------------------------------------------
  // Content coordinates follow CompressedLeaf: [0, kHeadBytes) is the head
  // (+tag), codes/pairs follow. In the engine these only ever run over
  // uniformly byte-varint content (pma_impl.hpp refuses the direct spread
  // otherwise, because its byte budgets are canonical); the bitmap and
  // cross-format paths below keep the primitives total for leaf-level use
  // (tests, and any future format-aware spread).

  using SpreadPoint = BV::SpreadPoint;

  // Bitmap split points land at pair starts with next == off: the whole
  // pair copies into the destination, whose writer masks out the bits at or
  // below the promoted head (the pair's first bit).
  class BitmapSeeker {
   public:
    BitmapSeeker(const uint8_t* leaf, size_t cap)
        : head_(head(leaf)), last_(head(leaf)), r_(pairs(leaf, cap)) {}

    template <typename Emit>
    uint64_t split_targets(uint64_t base, uint64_t budget, uint64_t j,
                           uint64_t limit, Emit&& emit) {
      namespace bm = codec::bitmap;
      for (; j * budget < limit; ++j) {
        const size_t target = static_cast<size_t>(j * budget - base);
        if (target == 0) {
          emit(j, SpreadPoint{0, kHeadBytes, head_}, false);
          continue;
        }
        while (have_ || (have_ = r_.next())) {
          if (kHeadBytes + r_.pair_off() >= target) break;
          last_ = (r_.win() << 6) |
                  static_cast<unsigned>(63 - __builtin_clzll(r_.word()));
          have_ = false;
        }
        if (!have_) {
          emit(j, SpreadPoint{}, true);
          continue;
        }
        const size_t off = kHeadBytes + r_.pair_off();
        const uint64_t key =
            (r_.win() << 6) |
            static_cast<unsigned>(__builtin_ctzll(r_.word()));
        emit(j, SpreadPoint{off, off, key}, false);
      }
      while (have_ || r_.next()) {
        last_ = (r_.win() << 6) |
                static_cast<unsigned>(63 - __builtin_clzll(r_.word()));
        have_ = false;
      }
      return last_;
    }

   private:
    uint64_t head_;
    uint64_t last_;
    codec::bitmap::PairReader r_;
    bool have_ = false;
  };

  class SpreadSeeker {
   public:
    SpreadSeeker(const uint8_t* leaf, size_t cap) : v_(make(leaf, cap)) {}

    template <typename Emit>
    uint64_t split_targets(uint64_t base, uint64_t budget, uint64_t j,
                           uint64_t limit, Emit&& emit) {
      return std::visit(
          [&](auto& s) {
            return s.split_targets(
                base, budget, j, limit, [&](uint64_t jj, auto p, bool sliver) {
                  emit(jj, SpreadPoint{p.off, p.next, p.key}, sliver);
                });
          },
          v_);
    }

   private:
    using Var =
        std::variant<BV::SpreadSeeker, GV::SpreadSeeker, BitmapSeeker>;
    static Var make(const uint8_t* leaf, size_t cap) {
      switch (leaf[8]) {
        case kGroupVarint:
          return Var(std::in_place_type<GV::SpreadSeeker>, leaf, cap);
        case kBitmap:
          return Var(std::in_place_type<BitmapSeeker>, leaf, cap);
        default:
          return Var(std::in_place_type<BV::SpreadSeeker>, leaf, cap);
      }
    }
    Var v_;
  };

  // The destination adopts the format of the first content it receives
  // (copy/join); keys appended before that decide byte-varint. As in
  // CompressedLeaf, the ENGINE maintains `last` between calls from its
  // per-source stats; leaf-level users must do the same.
  struct SpreadWriter {
    uint8_t* dst = nullptr;
    size_t cap = 0;
    size_t pos = 0;
    uint64_t last = 0;
    uint8_t fmt = kByteVarint;
    bool decided = false;
    size_t last_pair = 0;  // bitmap: offset of the last written pair (0=none)
  };

  static void spread_begin(SpreadWriter& w, uint8_t* dst, size_t cap,
                           uint64_t first_key) {
    w.dst = dst;
    w.cap = cap;
    set_head(dst, first_key);
    dst[8] = kByteVarint;
    w.pos = kHeadBytes;
    w.last = first_key;
    w.fmt = kByteVarint;
    w.decided = false;
    w.last_pair = 0;
  }

  // Copies source content [from, to); destination start only (the engine
  // calls this once per destination, right after spread_begin, with the key
  // preceding `from` promoted into the head == w.last).
  static void spread_copy_tail(SpreadWriter& w, const uint8_t* src,
                               size_t from, size_t to) {
    assert(from >= kHeadBytes && to >= from);
    if (to == from) return;
    const uint8_t sf = src[8];
    adopt(w, sf);
    if (w.fmt == sf && sf != kBitmap) {
      assert(w.pos + (to - from) <= w.cap);
      std::memcpy(w.dst + w.pos, src + from, to - from);
      w.pos += to - from;
      return;
    }
    if (w.fmt == kBitmap && sf == kBitmap) {
      copy_tail_bitmap(w, src, from, to);
      return;
    }
    transcode_range(w, src, from, to);
  }

  // Splices the start of another source leaf: its head re-encodes into the
  // destination, then its content [kHeadBytes, to) follows.
  static void spread_join(SpreadWriter& w, const uint8_t* src,
                          uint64_t src_head, size_t to) {
    const uint8_t sf = src[8];
    adopt(w, sf);
    if (w.fmt == sf && sf != kBitmap) {
      assert(w.pos + codec::ByteVarintCodec::kMaxBytes + 1 <= w.cap);
      if (sf == kGroupVarint) {
        w.pos += codec::GroupVarintCodec::encode(src_head - w.last,
                                                 w.dst + w.pos);
      } else {
        w.pos += codec::ByteVarintCodec::encode(src_head - w.last,
                                                w.dst + w.pos);
      }
      w.last = src_head;
      assert(w.pos + (to - kHeadBytes) <= w.cap);
      std::memcpy(w.dst + w.pos, src + kHeadBytes, to - kHeadBytes);
      w.pos += to - kHeadBytes;
      return;
    }
    if (w.fmt == kBitmap && sf == kBitmap) {
      join_bitmap(w, src, src_head, to);
      return;
    }
    append_one(w, src_head);
    if (to > kHeadBytes) transcode_range(w, src, kHeadBytes, to);
  }

  static void spread_append_keys(SpreadWriter& w, const uint64_t* keys,
                                 size_t n) {
    for (size_t i = 0; i < n; ++i) append_one(w, keys[i]);
  }

  static size_t spread_finish(SpreadWriter& w) {
    assert(w.pos <= w.cap);
    std::memset(w.dst + w.pos, 0, w.cap - w.pos);
    return w.pos;
  }

 private:
  static void adopt(SpreadWriter& w, uint8_t f) {
    if (!w.decided) {
      w.decided = true;
      w.fmt = f;
      w.dst[8] = f;
    }
  }

  // Appends one key (> w.last) in the destination's format.
  static void append_one(SpreadWriter& w, uint64_t key) {
    namespace bm = codec::bitmap;
    if (!w.decided) adopt(w, kByteVarint);
    switch (w.fmt) {
      case kGroupVarint:
        assert(w.pos + codec::GroupVarintCodec::kMaxBytes <= w.cap);
        w.pos += codec::GroupVarintCodec::encode(key - w.last, w.dst + w.pos);
        break;
      case kBitmap: {
        const uint64_t wk = bm::window(key);
        if (w.last_pair != 0 && wk == bm::window(w.last)) {
          const size_t woff = w.last_pair + bm::Var::skip(w.dst + w.last_pair);
          uint64_t word;
          std::memcpy(&word, w.dst + woff, 8);
          word |= bm::bit_mask(key);
          std::memcpy(w.dst + woff, &word, 8);
        } else {
          assert(w.pos + bm::kMaxPairBytes <= w.cap);
          w.last_pair = w.pos;
          w.pos += bm::store_pair(w.dst + w.pos, wk - bm::window(w.last),
                                  bm::bit_mask(key));
        }
        break;
      }
      default:
        assert(w.pos + codec::ByteVarintCodec::kMaxBytes <= w.cap);
        w.pos += codec::ByteVarintCodec::encode(key - w.last, w.dst + w.pos);
        break;
    }
    w.last = key;
  }

  // Verbatim-copies body pairs [from, to) of a bitmap source into a bitmap
  // destination at destination start: the first pair re-encodes (rebased to
  // the head's window chain, bits <= w.last masked out), the rest copies
  // byte-for-byte (their deltas chain pair-to-pair, anchor unchanged).
  static void copy_tail_bitmap(SpreadWriter& w, const uint8_t* src,
                               size_t from, size_t to) {
    namespace bm = codec::bitmap;
    const uint8_t* sb = body(src);
    const size_t boff = from - kHeadBytes;
    const size_t bend = to - kHeadBytes;
    if (boff >= bend || sb[boff] == 0) return;
    bm::Pair p = bm::load_pair(sb + boff);
    // from == kHeadBytes: the pair chains from the source head's window ==
    // window(w.last). Mid-leaf split: w.last is the pair's promoted first
    // bit, so its absolute window is window(w.last) either way.
    const uint64_t w1 = (from == kHeadBytes)
                            ? bm::window(w.last) + p.wdelta
                            : bm::window(w.last);
    uint64_t word = p.word;
    if (w1 == bm::window(w.last)) word &= bm::above_mask(w.last);
    if (word != 0) {
      assert(w.pos + bm::kMaxPairBytes <= w.cap);
      w.last_pair = w.pos;
      w.pos += bm::store_pair(w.dst + w.pos, w1 - bm::window(w.last), word);
    }
    // word == 0 only when w1 == window(w.last); the dropped pair's window
    // equals the chain anchor, so the rest still chains correctly.
    const size_t rest_off = boff + p.len;
    if (rest_off < bend) {
      const size_t rest = bend - rest_off;
      assert(w.pos + rest <= w.cap);
      std::memcpy(w.dst + w.pos, sb + rest_off, rest);
      for (size_t q = 0; q < rest;
           q += bm::Var::skip(sb + rest_off + q) + 8) {
        w.last_pair = w.pos + q;
      }
      w.pos += rest;
    }
  }

  static void join_bitmap(SpreadWriter& w, const uint8_t* src,
                          uint64_t src_head, size_t to) {
    namespace bm = codec::bitmap;
    const uint8_t* sb = body(src);
    const size_t bend = to - kHeadBytes;
    const uint64_t wh = bm::window(src_head);
    if (bend == 0 || sb[0] == 0) {
      append_one(w, src_head);
      return;
    }
    bm::Pair f = bm::load_pair(sb);
    if (f.wdelta == 0) {
      // The source's first pair shares the head's window: merge the head's
      // bit into it so no window is stored twice.
      assert(w.pos + bm::kMaxPairBytes <= w.cap);
      w.last_pair = w.pos;
      w.pos += bm::store_pair(w.dst + w.pos, wh - bm::window(w.last),
                              f.word | bm::bit_mask(src_head));
      w.last = src_head;
      if (f.len < bend) {
        const size_t rest = bend - f.len;
        assert(w.pos + rest <= w.cap);
        std::memcpy(w.dst + w.pos, sb + f.len, rest);
        for (size_t q = 0; q < rest; q += bm::Var::skip(sb + f.len + q) + 8) {
          w.last_pair = w.pos + q;
        }
        w.pos += rest;
      }
      return;
    }
    // Distinct windows: append the head's own pair (or merge it into the
    // destination's current last pair), then copy every source pair
    // verbatim — their chain anchors at window(src_head) == window(w.last).
    append_one(w, src_head);
    assert(w.pos + bend <= w.cap);
    std::memcpy(w.dst + w.pos, sb, bend);
    for (size_t q = 0; q < bend; q += bm::Var::skip(sb + q) + 8) {
      w.last_pair = w.pos + q;
    }
    w.pos += bend;
  }

  // Cross-format stitch: decode the source range (anchored at w.last) and
  // re-append each key in the destination's format.
  static void transcode_range(SpreadWriter& w, const uint8_t* src,
                              size_t from, size_t to) {
    namespace bm = codec::bitmap;
    switch (src[8]) {
      case kBitmap: {
        const uint8_t* sb = body(src);
        const size_t boff = from - kHeadBytes;
        const size_t bend = to - kHeadBytes;
        uint64_t win = bm::window(w.last);
        bool first = true;
        size_t q = boff;
        while (q < bend && sb[q] != 0) {
          bm::Pair p = bm::load_pair(sb + q);
          // Same anchoring rule as copy_tail_bitmap's first pair.
          const uint64_t pw = (first && from != kHeadBytes)
                                  ? bm::window(w.last)
                                  : win + p.wdelta;
          uint64_t word = p.word;
          if (pw == bm::window(w.last)) word &= bm::above_mask(w.last);
          while (word != 0) {
            append_one(w, (pw << 6) |
                              static_cast<unsigned>(__builtin_ctzll(word)));
            word &= word - 1;
          }
          win = pw;
          q += p.len;
          first = false;
        }
        return;
      }
      case kGroupVarint: {
        codec::DeltaStream<codec::GroupVarintCodec> s(src + from, to - from,
                                                      w.last);
        while (s.next()) append_one(w, s.value());
        return;
      }
      default: {
        codec::DeltaStream<codec::ByteVarintCodec> s(src + from, to - from,
                                                     w.last);
        while (s.next()) append_one(w, s.value());
        return;
      }
    }
  }
};

}  // namespace cpma::pma
