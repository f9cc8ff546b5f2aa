// Typed tests exercising both leaf policies (uncompressed and compressed)
// through the same scenarios: insert/remove/lookup against a reference
// std::set, encode/decode roundtrips, cursor iteration, and the policy
// invariants the engine relies on (byte accounting, zero-fill tails).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "codec/group_varint.hpp"
#include "pma/leaf_adaptive.hpp"
#include "pma/leaf_compressed.hpp"
#include "pma/leaf_uncompressed.hpp"
#include "util/random.hpp"

using cpma::util::Rng;
namespace pma = cpma::pma;

template <typename Policy>
class LeafTest : public ::testing::Test {
 protected:
  static constexpr size_t kCap = 512;
  std::vector<uint8_t> buf_ = std::vector<uint8_t>(kCap, 0);
  uint8_t* leaf() { return buf_.data(); }

  std::vector<uint64_t> decode() {
    std::vector<uint64_t> out;
    Policy::decode_append(leaf(), kCap, out);
    return out;
  }

  // The engine's invariant: all bytes past used_bytes are zero.
  void expect_zero_tail() {
    size_t used = Policy::used_bytes(leaf(), kCap);
    for (size_t i = used; i < kCap; ++i) {
      ASSERT_EQ(buf_[i], 0) << "dirty byte at " << i << " used=" << used;
    }
  }
};

using Policies =
    ::testing::Types<pma::UncompressedLeaf, pma::CompressedLeaf<>,
                     pma::CompressedLeaf<cpma::codec::GroupVarintCodec, 9>,
                     pma::AdaptiveLeaf>;
TYPED_TEST_SUITE(LeafTest, Policies);

TYPED_TEST(LeafTest, EmptyLeaf) {
  EXPECT_EQ(TypeParam::used_bytes(this->leaf(), this->kCap), 0u);
  EXPECT_EQ(TypeParam::element_count(this->leaf(), this->kCap), 0u);
  EXPECT_EQ(TypeParam::head(this->leaf()), 0u);
  EXPECT_FALSE(TypeParam::contains(this->leaf(), this->kCap, 5));
  EXPECT_FALSE(TypeParam::lower_bound(this->leaf(), this->kCap, 5).has_value());
  EXPECT_TRUE(this->decode().empty());
}

TYPED_TEST(LeafTest, SingleInsert) {
  EXPECT_TRUE(TypeParam::insert(this->leaf(), this->kCap, 42));
  EXPECT_EQ(TypeParam::head(this->leaf()), 42u);
  EXPECT_EQ(TypeParam::element_count(this->leaf(), this->kCap), 1u);
  EXPECT_TRUE(TypeParam::contains(this->leaf(), this->kCap, 42));
  EXPECT_FALSE(TypeParam::contains(this->leaf(), this->kCap, 41));
  EXPECT_FALSE(TypeParam::insert(this->leaf(), this->kCap, 42));  // dup
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, InsertBelowHeadMovesHead) {
  ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, 100));
  ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, 50));
  EXPECT_EQ(TypeParam::head(this->leaf()), 50u);
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{50, 100}));
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, InsertMiddleAndAppend) {
  for (uint64_t k : {10, 30, 20, 40, 35}) {
    ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, k));
  }
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{10, 20, 30, 35, 40}));
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, RemoveHeadMiddleLastOnly) {
  for (uint64_t k : {10, 20, 30, 40}) {
    ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, k));
  }
  EXPECT_TRUE(TypeParam::remove(this->leaf(), this->kCap, 10));  // head
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{20, 30, 40}));
  EXPECT_TRUE(TypeParam::remove(this->leaf(), this->kCap, 30));  // middle
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{20, 40}));
  EXPECT_TRUE(TypeParam::remove(this->leaf(), this->kCap, 40));  // last
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{20}));
  EXPECT_TRUE(TypeParam::remove(this->leaf(), this->kCap, 20));  // only
  EXPECT_EQ(TypeParam::element_count(this->leaf(), this->kCap), 0u);
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, RemoveAbsentKeys) {
  for (uint64_t k : {10, 20, 30}) {
    ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, k));
  }
  EXPECT_FALSE(TypeParam::remove(this->leaf(), this->kCap, 5));
  EXPECT_FALSE(TypeParam::remove(this->leaf(), this->kCap, 25));
  EXPECT_FALSE(TypeParam::remove(this->leaf(), this->kCap, 99));
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{10, 20, 30}));
}

TYPED_TEST(LeafTest, LowerBound) {
  for (uint64_t k : {10, 20, 30}) {
    ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, k));
  }
  EXPECT_EQ(TypeParam::lower_bound(this->leaf(), this->kCap, 5).value(), 10u);
  EXPECT_EQ(TypeParam::lower_bound(this->leaf(), this->kCap, 10).value(), 10u);
  EXPECT_EQ(TypeParam::lower_bound(this->leaf(), this->kCap, 11).value(), 20u);
  EXPECT_EQ(TypeParam::lower_bound(this->leaf(), this->kCap, 30).value(), 30u);
  EXPECT_FALSE(TypeParam::lower_bound(this->leaf(), this->kCap, 31).has_value());
}

TYPED_TEST(LeafTest, WriteRoundtripAndSizeAccounting) {
  std::vector<uint64_t> keys{5, 9, 100, 10000, 1000000, (1ull << 40) + 3};
  size_t need = TypeParam::encoded_size(keys.data(), keys.size());
  ASSERT_LE(need, this->kCap);
  TypeParam::write(this->leaf(), this->kCap, keys.data(), keys.size());
  EXPECT_EQ(TypeParam::used_bytes(this->leaf(), this->kCap), need);
  EXPECT_EQ(this->decode(), keys);
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, WriteEmptyClearsLeaf) {
  ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, 7));
  TypeParam::write(this->leaf(), this->kCap, nullptr, 0);
  EXPECT_EQ(TypeParam::element_count(this->leaf(), this->kCap), 0u);
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, SumLastMap) {
  std::vector<uint64_t> keys{3, 14, 159, 2653};
  TypeParam::write(this->leaf(), this->kCap, keys.data(), keys.size());
  EXPECT_EQ(TypeParam::sum_leaf(this->leaf(), this->kCap), 3u + 14 + 159 + 2653);
  EXPECT_EQ(TypeParam::last(this->leaf(), this->kCap), 2653u);
  std::vector<uint64_t> seen;
  bool finished = TypeParam::map(this->leaf(), this->kCap, [&](uint64_t k) {
    seen.push_back(k);
    return true;
  });
  EXPECT_TRUE(finished);
  EXPECT_EQ(seen, keys);
}

TYPED_TEST(LeafTest, MapEarlyStop) {
  std::vector<uint64_t> keys{1, 2, 3, 4, 5};
  TypeParam::write(this->leaf(), this->kCap, keys.data(), keys.size());
  int count = 0;
  bool finished = TypeParam::map(this->leaf(), this->kCap, [&](uint64_t) {
    return ++count < 3;
  });
  EXPECT_FALSE(finished);
  EXPECT_EQ(count, 3);
}

TYPED_TEST(LeafTest, CursorIteration) {
  std::vector<uint64_t> keys{11, 22, 33, 44};
  TypeParam::write(this->leaf(), this->kCap, keys.data(), keys.size());
  typename TypeParam::Cursor cur;
  ASSERT_TRUE(TypeParam::cursor_begin(this->leaf(), this->kCap, cur));
  std::vector<uint64_t> seen{cur.value};
  while (TypeParam::cursor_next(this->leaf(), this->kCap, cur)) {
    seen.push_back(cur.value);
  }
  EXPECT_EQ(seen, keys);
}

TYPED_TEST(LeafTest, CursorOnEmptyLeaf) {
  typename TypeParam::Cursor cur;
  EXPECT_FALSE(TypeParam::cursor_begin(this->leaf(), this->kCap, cur));
}

TYPED_TEST(LeafTest, RandomizedAgainstStdSet) {
  Rng r(77);
  std::set<uint64_t> ref;
  // Keep the population small enough that everything fits in one leaf.
  const uint64_t key_space = 40;
  for (int step = 0; step < 4000; ++step) {
    uint64_t key = 1 + r.next() % key_space;
    if (r.next() % 2 == 0) {
      bool inserted = TypeParam::insert(this->leaf(), this->kCap, key);
      EXPECT_EQ(inserted, ref.insert(key).second);
    } else {
      bool removed = TypeParam::remove(this->leaf(), this->kCap, key);
      EXPECT_EQ(removed, ref.erase(key) == 1);
    }
    if (step % 256 == 0) {
      std::vector<uint64_t> want(ref.begin(), ref.end());
      ASSERT_EQ(this->decode(), want);
      this->expect_zero_tail();
    }
  }
}

TYPED_TEST(LeafTest, LargeKeysNearUint64Max) {
  std::vector<uint64_t> keys{~uint64_t{0} - 1000, ~uint64_t{0} - 10,
                             ~uint64_t{0}};
  for (uint64_t k : keys) {
    ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, k));
  }
  EXPECT_EQ(this->decode(), keys);
  EXPECT_TRUE(TypeParam::contains(this->leaf(), this->kCap, ~uint64_t{0}));
}

// ---- merge_tail (the batch pipeline's suffix-splice merge) ----------------

TYPED_TEST(LeafTest, MergeTailSplicesBatchIntoSuffix) {
  std::vector<uint64_t> base{10, 20, 30, 40, 50};
  TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
  std::vector<uint64_t> batch{25, 35, 35, 40, 60};  // dup-in-batch + existing
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t added = 0;
  ASSERT_TRUE(TypeParam::merge_tail(this->leaf(), this->kCap, batch.data(),
                                    batch.size(), this->kCap - 24, buf, &need,
                                    &added));
  EXPECT_EQ(this->decode(),
            (std::vector<uint64_t>{10, 20, 25, 30, 35, 40, 50, 60}));
  EXPECT_EQ(added, 3u);
  EXPECT_EQ(need, TypeParam::used_bytes(this->leaf(), this->kCap));
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, MergeTailRejectsEmptyLeafAndKeysBelowHead) {
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t added = 0;
  std::vector<uint64_t> batch{5};
  // Empty leaf: the engine's materializing path owns this case.
  EXPECT_FALSE(TypeParam::merge_tail(this->leaf(), this->kCap, batch.data(),
                                     1, this->kCap - 24, buf, &need, &added));
  std::vector<uint64_t> base{10, 20};
  TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
  // keys[0] < head: splicing would displace the head; also materializing.
  EXPECT_FALSE(TypeParam::merge_tail(this->leaf(), this->kCap, batch.data(),
                                     1, this->kCap - 24, buf, &need, &added));
  EXPECT_EQ(this->decode(), base);
}

TYPED_TEST(LeafTest, MergeTailOverflowLeavesLeafUntouched) {
  // Fill the leaf close to its slack bound, then merge a batch that cannot
  // fit: merge_tail must refuse without modifying a byte.
  std::vector<uint64_t> base;
  for (uint64_t k = 1000; TypeParam::used_bytes(this->leaf(), this->kCap) +
                              64 <= this->kCap - 24;
       k += 1 + k % 7) {
    ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, k));
    base.push_back(k);
  }
  std::vector<uint8_t> before = this->buf_;
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < 64; ++i) batch.push_back(2'000'000 + i * 3);
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t added = 0;
  EXPECT_FALSE(TypeParam::merge_tail(this->leaf(), this->kCap, batch.data(),
                                     batch.size(), this->kCap - 24, buf,
                                     &need, &added));
  EXPECT_EQ(this->buf_, before);
}

TYPED_TEST(LeafTest, MergeTailRandomizedAgainstStdSet) {
  Rng r(77);
  for (int round = 0; round < 200; ++round) {
    std::fill(this->buf_.begin(), this->buf_.end(), 0);
    std::set<uint64_t> ref;
    uint64_t span = 1 + (r.next() % 2 == 0 ? 400 : 1u << 20);
    std::vector<uint64_t> base;
    for (uint64_t i = 0, n = 5 + r.next() % 30; i < n; ++i) {
      ref.insert(1 + r.next() % span);
    }
    base.assign(ref.begin(), ref.end());
    TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
    std::vector<uint64_t> batch;
    for (uint64_t i = 0, n = 1 + r.next() % 10; i < n; ++i) {
      batch.push_back(base[0] + r.next() % span);
    }
    std::sort(batch.begin(), batch.end());
    typename TypeParam::MergeBuf buf;
    size_t need = 0;
    uint64_t added = 0;
    if (!TypeParam::merge_tail(this->leaf(), this->kCap, batch.data(),
                               batch.size(), this->kCap - 24, buf, &need,
                               &added)) {
      EXPECT_EQ(this->decode(), base) << "refusal must not modify the leaf";
      continue;
    }
    uint64_t expect_added = 0;
    for (uint64_t k : batch) expect_added += ref.insert(k).second ? 1 : 0;
    EXPECT_EQ(this->decode(),
              std::vector<uint64_t>(ref.begin(), ref.end()));
    EXPECT_EQ(added, expect_added);
    EXPECT_EQ(need, TypeParam::used_bytes(this->leaf(), this->kCap));
    this->expect_zero_tail();
  }
}

// ---- remove_tail (the batch pipeline's suffix-splice subtraction) ----------

TYPED_TEST(LeafTest, RemoveTailSplicesBatchOutOfSuffix) {
  std::vector<uint64_t> base{10, 20, 30, 40, 50, 60};
  TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
  std::vector<uint64_t> batch{25, 30, 30, 50, 70};  // dups + absent keys
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t removed = 0;
  ASSERT_TRUE(TypeParam::remove_tail(this->leaf(), this->kCap, batch.data(),
                                     batch.size(), buf, &need, &removed));
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{10, 20, 40, 60}));
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(need, TypeParam::used_bytes(this->leaf(), this->kCap));
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, RemoveTailRefusesEmptyLeafUntouched) {
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t removed = 0;
  std::vector<uint64_t> batch{5};
  std::vector<uint8_t> before = this->buf_;
  EXPECT_FALSE(TypeParam::remove_tail(this->leaf(), this->kCap, batch.data(),
                                      1, buf, &need, &removed));
  EXPECT_EQ(this->buf_, before);
}

TYPED_TEST(LeafTest, RemoveTailNoMatchLeavesLeafUntouched) {
  std::vector<uint64_t> base{10, 20, 30};
  TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
  std::vector<uint8_t> before = this->buf_;
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t removed = 1;
  // All batch keys below the head: absent by definition.
  std::vector<uint64_t> low{3, 5};
  ASSERT_TRUE(TypeParam::remove_tail(this->leaf(), this->kCap, low.data(),
                                     low.size(), buf, &need, &removed));
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(this->buf_, before);
  // In-range but absent keys: scanned, still untouched.
  std::vector<uint64_t> absent{15, 25, 99};
  removed = 1;
  ASSERT_TRUE(TypeParam::remove_tail(this->leaf(), this->kCap, absent.data(),
                                     absent.size(), buf, &need, &removed));
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(this->buf_, before);
}

TYPED_TEST(LeafTest, RemoveTailPromotesSurvivorIntoRemovedHead) {
  std::vector<uint64_t> base{10, 20, 30, 40};
  TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
  std::vector<uint64_t> batch{10, 30};
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t removed = 0;
  ASSERT_TRUE(TypeParam::remove_tail(this->leaf(), this->kCap, batch.data(),
                                     batch.size(), buf, &need, &removed));
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{20, 40}));
  EXPECT_EQ(TypeParam::head(this->leaf()), 20u);
  EXPECT_EQ(removed, 2u);
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, RemoveTailRemovingEverythingEmptiesLeaf) {
  std::vector<uint64_t> base{10, 20, 30};
  TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
  std::vector<uint64_t> batch{10, 20, 30};
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t removed = 0;
  ASSERT_TRUE(TypeParam::remove_tail(this->leaf(), this->kCap, batch.data(),
                                     batch.size(), buf, &need, &removed));
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(TypeParam::element_count(this->leaf(), this->kCap), 0u);
  EXPECT_EQ(need, 0u);
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, RemoveTailRandomizedAgainstStdSet) {
  Rng r(78);
  for (int round = 0; round < 200; ++round) {
    std::fill(this->buf_.begin(), this->buf_.end(), 0);
    std::set<uint64_t> ref;
    uint64_t span = 1 + (r.next() % 2 == 0 ? 400 : 1u << 20);
    for (uint64_t i = 0, n = 5 + r.next() % 30; i < n; ++i) {
      ref.insert(1 + r.next() % span);
    }
    std::vector<uint64_t> base(ref.begin(), ref.end());
    TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
    std::vector<uint64_t> batch;
    for (uint64_t i = 0, n = 1 + r.next() % 10; i < n; ++i) {
      // Mix of present keys (sampled from base) and likely-absent ones.
      if (r.next() % 2 == 0) {
        batch.push_back(base[r.next() % base.size()]);
      } else {
        batch.push_back(1 + r.next() % span);
      }
    }
    std::sort(batch.begin(), batch.end());
    typename TypeParam::MergeBuf buf;
    size_t need = 0;
    uint64_t removed = 0;
    ASSERT_TRUE(TypeParam::remove_tail(this->leaf(), this->kCap, batch.data(),
                                       batch.size(), buf, &need, &removed));
    uint64_t expect_removed = 0;
    for (uint64_t k : batch) expect_removed += ref.erase(k);
    EXPECT_EQ(this->decode(), std::vector<uint64_t>(ref.begin(), ref.end()));
    EXPECT_EQ(removed, expect_removed);
    if (removed > 0) {
      EXPECT_EQ(need, TypeParam::used_bytes(this->leaf(), this->kCap));
    }
    this->expect_zero_tail();
  }
}

// ---- direct-spread primitives ----------------------------------------------

TYPED_TEST(LeafTest, SpreadSeekerSplitsAndStitchesRoundTrip) {
  // Drive the resize's one-pass split emitter exactly as the engine does:
  // collect every destination boundary for a byte budget, stitch the
  // segments between them into fresh leaves via the spread writer, and
  // check the concatenation decodes back to the original keys. Key sets
  // cover mixed widths plus the uniform 1/2/3-byte delta regimes the
  // codec's sum_run_to word probes special-case.
  std::vector<std::vector<uint64_t>> key_sets;
  key_sets.push_back({3, 14, 159, 2653, 58979, 1ull << 33});
  for (uint64_t step : {3ull, 9000ull, 1500000ull}) {
    std::vector<uint64_t> ks;
    for (uint64_t i = 0, k = 1000; i < 40; ++i) ks.push_back(k += step);
    key_sets.push_back(ks);
  }
  for (const auto& keys : key_sets) {
    TypeParam::write(this->leaf(), this->kCap, keys.data(), keys.size());
    size_t used = TypeParam::used_bytes(this->leaf(), this->kCap);
    // 16 is the engine's minimum budget; `used` yields no interior split.
    for (size_t budget : {size_t{16}, size_t{24}, size_t{57}, used}) {
      std::vector<typename TypeParam::SpreadPoint> splits;
      typename TypeParam::SpreadSeeker seeker(this->leaf(), this->kCap);
      uint64_t last = seeker.split_targets(
          0, budget, 1, used,
          [&](uint64_t, typename TypeParam::SpreadPoint sp, bool sliver) {
            // A boundary past the last key's code start splits nothing
            // here; the engine resolves it to the next leaf's head.
            if (!sliver) splits.push_back(sp);
          });
      ASSERT_EQ(last, keys.back()) << "budget=" << budget;
      std::vector<uint64_t> got;
      std::vector<uint8_t> dst(this->kCap, 0);
      typename TypeParam::SpreadWriter w;
      TypeParam::spread_begin(w, dst.data(), this->kCap, keys[0]);
      size_t from = TypeParam::kHeadBytes;  // just past the head's footprint
      for (const auto& sp : splits) {
        TypeParam::spread_copy_tail(w, this->leaf(), from, sp.off);
        TypeParam::spread_finish(w);
        TypeParam::decode_append(dst.data(), this->kCap, got);
        std::fill(dst.begin(), dst.end(), 0);
        TypeParam::spread_begin(w, dst.data(), this->kCap, sp.key);
        from = sp.next;
      }
      TypeParam::spread_copy_tail(w, this->leaf(), from, used);
      TypeParam::spread_finish(w);
      TypeParam::decode_append(dst.data(), this->kCap, got);
      ASSERT_EQ(got, keys) << "budget=" << budget;
    }
  }
}

// Compressed-leaf-specific size behaviour.
TEST(CompressedLeafOnly, DenseKeysUseOneBytePerDelta) {
  std::vector<uint8_t> buf(512, 0);
  std::vector<uint64_t> keys(100);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = 1000 + i;
  pma::CompressedLeaf<>::write(buf.data(), buf.size(), keys.data(), keys.size());
  // head (8 bytes) + 99 one-byte deltas.
  EXPECT_EQ(pma::CompressedLeaf<>::used_bytes(buf.data(), buf.size()),
            8u + 99u);
}

TEST(CompressedLeafOnly, InsertNeverGrowsMoreThanSlack) {
  // Worst-case single-insert growth must stay within kLeafSlack-ish bounds;
  // this protects the engine's placement precondition.
  std::vector<uint8_t> buf(512, 0);
  std::vector<uint64_t> keys{1ull << 62, (1ull << 62) + (1ull << 40)};
  pma::CompressedLeaf<>::write(buf.data(), buf.size(), keys.data(), keys.size());
  size_t before = pma::CompressedLeaf<>::used_bytes(buf.data(), buf.size());
  ASSERT_TRUE(pma::CompressedLeaf<>::insert(buf.data(), buf.size(),
                                          (1ull << 62) + (1ull << 39)));
  size_t after = pma::CompressedLeaf<>::used_bytes(buf.data(), buf.size());
  EXPECT_LE(after - before, 19u);
}

TEST(UncompressedLeafOnly, FixedEightBytesPerElement) {
  std::vector<uint8_t> buf(512, 0);
  std::vector<uint64_t> keys{1, 1000, 1ull << 50};
  pma::UncompressedLeaf::write(buf.data(), buf.size(), keys.data(),
                               keys.size());
  EXPECT_EQ(pma::UncompressedLeaf::used_bytes(buf.data(), buf.size()), 24u);
}

// ---- AdaptiveLeaf::Packer: block-summary physical packing ------------------

namespace {

using ALeaf = pma::AdaptiveLeaf;

// Sorted unique streams covering each format's regime: dense runs (bitmap),
// sparse 40-bit keys (byte-varint), sparse 32-bit keys (group-varint), a
// stream whose smallest format the selection gates reject, dense runs and
// sparse keys interleaved, and runs that
// straddle 64-key windows across window deltas at the varint size steps
// (127/128, 16383/16384), where the bitmap pair terms change length.
std::vector<uint64_t> packer_stream(const std::string& kind, uint64_t seed) {
  Rng r(seed);
  std::vector<uint64_t> keys;
  auto dense_runs = [&](size_t target) {
    while (keys.size() < target) {
      const uint64_t base = 1 + (r.next() >> 24);
      const uint64_t len = 64 + r.next_below(1500);
      const uint64_t step = 1 + r.next_below(2);
      for (uint64_t i = 0; i < len; ++i) keys.push_back(base + i * step);
    }
  };
  if (kind == "dense_runs") {
    dense_runs(9000);
  } else if (kind == "sparse40") {
    for (int i = 0; i < 4000; ++i) keys.push_back(1 + (r.next() >> 24));
  } else if (kind == "sparse32") {  // 3-byte deltas: group-varint ties
    for (int i = 0; i < 4000; ++i) keys.push_back(1 + (r.next() >> 32));
  } else if (kind == "gv_gate") {
    // 2-byte deltas (a tie) with every tenth delta in [2^35, 2^37), where
    // group-varint is a byte smaller: group-varint is the smallest format,
    // but at < 2.5 canonical bytes/key the gate selects byte-varint, so
    // cuts must step back from where the minimum runs out.
    uint64_t k = 1;
    for (int i = 0; i < 4000; ++i) {
      k += i % 10 == 9 ? (uint64_t{1} << 35) + r.next_below(uint64_t{1} << 35)
                       : 128 + r.next_below(8000);
      keys.push_back(k);
    }
  } else if (kind == "mixed") {
    dense_runs(5000);
    for (int i = 0; i < 2000; ++i) keys.push_back(1 + (r.next() >> 24));
  } else {  // straddle
    const uint64_t gaps[] = {0, 1, 2, 126, 127, 128, 16383, 16384, 1u << 21};
    uint64_t w = 1000;
    while (keys.size() < 8000) {
      w += gaps[r.next_below(std::size(gaps))];
      // A short run starting near the window's top so it spills into the
      // next window, or a few scattered bits.
      if (r.next_below(2) == 0) {
        const uint64_t start = (w << 6) + 56 + r.next_below(8);
        const uint64_t len = 2 + r.next_below(20);
        for (uint64_t i = 0; i < len; ++i) keys.push_back(start + i);
        w = (start + len) >> 6;
      } else {
        keys.push_back(w << 6);
        keys.push_back((w << 6) + 63);
      }
      ++w;
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// Exact size write() materializes keys[0, n) at within `cap`, from scratch.
size_t selected_size(const uint64_t* keys, size_t n, size_t cap) {
  switch (ALeaf::select_format(keys, n, cap)) {
    case ALeaf::kBitmap:
      return ALeaf::kHeadBytes + cpma::codec::bitmap::body_size(keys, n);
    case ALeaf::kGroupVarint:
      return ALeaf::GV::encoded_size(keys, n);
    default:
      return ALeaf::BV::encoded_size(keys, n);
  }
}

// Brute-force reference: from each leaf start, try every cut and keep the
// longest slice whose selected size fits. Each format's size only grows as
// keys are appended, so once all three exceed the budget no longer cut can
// fit and the scan stops.
uint64_t reference_leaves(const std::vector<uint64_t>& keys, uint64_t budget,
                          size_t cap) {
  uint64_t leaves = 0;
  for (size_t s = 0; s < keys.size();) {
    size_t best = s + 1;
    for (size_t e = s + 2; e <= keys.size(); ++e) {
      const uint64_t* k = keys.data() + s;
      const size_t n = e - s;
      const size_t bv = ALeaf::BV::encoded_size(k, n);
      const size_t gv = ALeaf::GV::encoded_size(k, n);
      const size_t bm =
          ALeaf::kHeadBytes + cpma::codec::bitmap::body_size(k, n);
      if (std::min({bv, gv, bm}) > budget) break;
      if (selected_size(k, n, cap) <= budget) best = e;
    }
    ++leaves;
    s = best;
  }
  return leaves;
}

}  // namespace

TEST(AdaptivePacker, LeavesMatchWriteAndFitBudget) {
  bool seen[3] = {false, false, false};  // formats chosen across all plans
  for (const char* kind : {"dense_runs", "sparse40", "sparse32", "gv_gate",
                           "mixed", "straddle"}) {
    for (uint64_t seed : {1, 2}) {
      const auto keys = packer_stream(kind, seed);
      for (size_t cap : {512, 1024}) {
        const uint64_t cap_budget = cap - pma::kLeafSlack - 18;
        for (uint64_t budget : {uint64_t{48}, uint64_t{200}, cap_budget}) {
          SCOPED_TRACE(::testing::Message() << kind << " seed=" << seed
                                            << " cap=" << cap
                                            << " budget=" << budget);
          const ALeaf::Packer packer(keys.data(), keys.size(), cap);
          EXPECT_EQ(packer.canonical_bytes(),
                    ALeaf::encoded_size(keys.data(), keys.size()));
          std::vector<ALeaf::PackedLeaf> plan;
          const auto [leaves, phys] = packer.pack(budget, &plan);
          ASSERT_EQ(leaves, plan.size());
          ASSERT_FALSE(plan.empty());
          ASSERT_EQ(plan.front().begin, 0u);
          std::vector<uint8_t> buf(cap);
          std::vector<uint64_t> back;
          uint64_t sum = 0;
          for (size_t p = 0; p < plan.size(); ++p) {
            const uint64_t s = plan[p].begin;
            const uint64_t e =
                p + 1 < plan.size() ? plan[p + 1].begin : keys.size();
            ASSERT_LT(s, e);
            const uint64_t* k = keys.data() + s;
            ASSERT_EQ(plan[p].fmt, ALeaf::select_format(k, e - s, cap))
                << "leaf " << p;
            ASSERT_LE(plan[p].bytes, budget) << "leaf " << p;
            ALeaf::write_format(buf.data(), cap, k, e - s, plan[p].fmt);
            ASSERT_EQ(plan[p].bytes, ALeaf::used_bytes(buf.data(), cap))
                << "leaf " << p;
            ALeaf::decode_append(buf.data(), cap, back);
            sum += plan[p].bytes;
            seen[plan[p].fmt] = true;
          }
          EXPECT_EQ(sum, phys);
          EXPECT_EQ(back, keys);
          if (budget == cap_budget) {
            EXPECT_LE(leaves, reference_leaves(keys, budget, cap));
          }
        }
      }
    }
  }
  EXPECT_TRUE(seen[ALeaf::kByteVarint]);
  EXPECT_TRUE(seen[ALeaf::kGroupVarint]);
  EXPECT_TRUE(seen[ALeaf::kBitmap]);
}

TEST(AdaptivePacker, EmptyAndSingleKeyStreams) {
  const ALeaf::Packer empty(nullptr, 0, 512);
  EXPECT_EQ(empty.canonical_bytes(), 0u);
  EXPECT_EQ(empty.pack(100), (std::pair<uint64_t, uint64_t>{0, 0}));
  const uint64_t one = 42;
  std::vector<ALeaf::PackedLeaf> plan;
  const ALeaf::Packer single(&one, 1, 512);
  EXPECT_EQ(single.pack(100, &plan),
            (std::pair<uint64_t, uint64_t>{1, ALeaf::kHeadBytes}));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].fmt, ALeaf::kByteVarint);
}

// ---- SeekCursor: the forward lower-bound cursor every policy's point
// search goes through ------------------------------------------------------

namespace {

// How a typed case materializes a sorted key set: the policy's own write(),
// or the adaptive leaf pinned to one format through write_format.
template <typename L>
struct PolicyWrite {
  using Leaf = L;
  static void write(uint8_t* leaf, size_t cap,
                    const std::vector<uint64_t>& keys) {
    L::write(leaf, cap, keys.data(), keys.size());
  }
};

template <uint8_t Fmt>
struct AdaptiveFormat {
  using Leaf = pma::AdaptiveLeaf;
  static void write(uint8_t* leaf, size_t cap,
                    const std::vector<uint64_t>& keys) {
    Leaf::write_format(leaf, cap, keys.data(), keys.size(), Fmt);
  }
};

}  // namespace

template <typename W>
class SeekCursorTest : public ::testing::Test {
 protected:
  using Leaf = typename W::Leaf;
  // Room for 300 keys in every format: 8 B cells, <= 10 B varints, <= 19 B
  // bitmap pairs.
  static constexpr size_t kCap = 8192;
  std::vector<uint8_t> buf_ = std::vector<uint8_t>(kCap, 0);

  // Writes `keys`, then answers the non-decreasing `probes` through ONE
  // cursor, checking each seek (and the one-shot contains / lower_bound)
  // against std::set.
  void check(const std::vector<uint64_t>& keys,
             const std::vector<uint64_t>& probes) {
    W::write(buf_.data(), kCap, keys);
    ASSERT_EQ(Leaf::element_count(buf_.data(), kCap), keys.size());
    const std::set<uint64_t> ref(keys.begin(), keys.end());
    typename Leaf::SeekCursor cur(buf_.data(), kCap);
    for (size_t i = 0; i < probes.size(); ++i) {
      const uint64_t k = probes[i];
      ASSERT_TRUE(i == 0 || probes[i - 1] <= k) << "probes must ascend";
      auto it = ref.lower_bound(k);
      const std::optional<uint64_t> expect =
          it == ref.end() ? std::nullopt : std::optional<uint64_t>(*it);
      ASSERT_EQ(cur.seek(k), expect) << "probe " << i << " key=" << k;
      ASSERT_EQ(Leaf::lower_bound(buf_.data(), kCap, k), expect)
          << "key=" << k;
      ASSERT_EQ(Leaf::contains(buf_.data(), kCap, k), ref.count(k) != 0)
          << "key=" << k;
    }
  }
};

using SeekWriters = ::testing::Types<
    PolicyWrite<pma::UncompressedLeaf>, PolicyWrite<pma::CompressedLeaf<>>,
    PolicyWrite<pma::CompressedLeaf<cpma::codec::GroupVarintCodec>>,
    AdaptiveFormat<pma::AdaptiveLeaf::kByteVarint>,
    AdaptiveFormat<pma::AdaptiveLeaf::kGroupVarint>,
    AdaptiveFormat<pma::AdaptiveLeaf::kBitmap>>;
TYPED_TEST_SUITE(SeekCursorTest, SeekWriters);

TYPED_TEST(SeekCursorTest, EmptyLeaf) {
  this->check({}, {0, 1, 5, 5, ~uint64_t{0}});
}

TYPED_TEST(SeekCursorTest, HeadLastAndPastLast) {
  const std::vector<uint64_t> keys = {100, 101, 164, 1000, 4096};
  // Below the head, equal to the head (twice), the last key, one past it,
  // and further probes on the exhausted cursor.
  this->check(keys, {1, 99, 100, 100, 4096, 4097, 4097, ~uint64_t{0}});
  this->check(keys, {4095, 4096});
  this->check(keys, {4097});
  this->check({7}, {6, 7, 7, 8});
}

TYPED_TEST(SeekCursorTest, DuplicateProbes) {
  const std::vector<uint64_t> keys = {3, 5, 9, 64, 65, 200, 70000};
  this->check(keys, {4, 4, 5, 5, 5, 6, 6, 64, 64, 66, 66, 70000, 70000});
}

TYPED_TEST(SeekCursorTest, WindowRollOver) {
  // Window 2 (keys 128..191) holds 130 and 131 only: probes at 140 and 191
  // find no higher bit there and must roll over to the next pair (window
  // 3, key 200); 250 rolls over two windows to 300, and 63/64 straddle the
  // head's own window.
  const std::vector<uint64_t> keys = {60, 62, 130, 131, 200, 255, 300};
  this->check(keys, {61, 63, 64, 131, 132, 140, 191, 192, 201, 250, 256});
  this->check(keys, {140});
  this->check(keys, {191, 255, 256, 301});
}

TYPED_TEST(SeekCursorTest, RandomizedAgainstStdSet) {
  Rng rng(0x5EEC);
  for (int round = 0; round < 200; ++round) {
    // Dense runs (bitmap-shaped), scattered keys and gaps of every scale,
    // so windows are full, sparse, shared with the head, or far apart.
    std::set<uint64_t> s;
    uint64_t k = 1 + rng.next_below(1000);
    const size_t target = rng.next_below(300);
    while (s.size() < target) {
      switch (rng.next_below(3)) {
        case 0: {
          const uint64_t len = 1 + rng.next_below(100);
          const uint64_t step = 1 + rng.next_below(2);
          for (uint64_t i = 0; i < len && s.size() < target; ++i) {
            s.insert(k);
            k += step;
          }
          break;
        }
        case 1:
          s.insert(k);
          k += 1 + rng.next_below(64);
          break;
        default:
          s.insert(k);
          k += 1 + (rng.next() >> (24 + rng.next_below(36)));
      }
    }
    const std::vector<uint64_t> keys(s.begin(), s.end());
    // Probes: stored keys and their neighbours, window edges, random
    // values across (and past) the span, each sometimes repeated.
    std::vector<uint64_t> probes;
    const uint64_t span = keys.empty() ? 1000 : keys.back() + 200;
    for (int i = 0; i < 150; ++i) {
      uint64_t p;
      const uint64_t near = keys.empty() ? 0 : keys[rng.next_below(keys.size())];
      switch (rng.next_below(4)) {
        case 0:
          p = near;
          break;
        case 1:
          p = near + 1;
          break;
        case 2:
          p = (near | 63) + rng.next_below(2);
          break;
        default:
          p = rng.next_below(span);
      }
      probes.push_back(p);
      if (rng.next_below(5) == 0) probes.push_back(p);
    }
    std::sort(probes.begin(), probes.end());
    SCOPED_TRACE(::testing::Message() << "round " << round);
    this->check(keys, probes);
  }
}
