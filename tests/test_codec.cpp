#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codec/bitstream.hpp"
#include "codec/table_codec.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "nets/rnet.hpp"
#include "trees/compact_tree_router.hpp"
#include "trees/tree.hpp"

namespace compactroute {
namespace {

TEST(BitStream, SingleValues) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0, 0);
  w.write(0xffff, 16);
  w.write(1, 1);
  EXPECT_EQ(w.bit_count(), 20u);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(3), 0b101u);
  EXPECT_EQ(r.read(0), 0u);
  EXPECT_EQ(r.read(16), 0xffffu);
  EXPECT_EQ(r.read(1), 1u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitStream, RejectsOverflowAndUnderflow) {
  BitWriter w;
  EXPECT_THROW(w.write(4, 2), InvariantError);  // 4 needs 3 bits
  w.write(3, 2);
  BitReader r(w.bytes());
  r.read(2);
  EXPECT_THROW(r.read(16), InvariantError);
}

TEST(BitStream, RandomRoundTrip) {
  Prng prng(99);
  std::vector<std::pair<std::uint64_t, int>> values;
  BitWriter w;
  for (int i = 0; i < 2000; ++i) {
    const int width = 1 + static_cast<int>(prng.next_below(64));
    const std::uint64_t value =
        width == 64 ? prng.next_u64() : prng.next_u64() & ((1ULL << width) - 1);
    values.emplace_back(value, width);
    w.write(value, width);
  }
  BitReader r(w.bytes());
  for (const auto& [value, width] : values) {
    EXPECT_EQ(r.read(width), value);
  }
}

TEST(BitStream, VarintRoundTrip) {
  BitWriter w;
  const std::uint64_t samples[] = {0,    1,       127,        128,
                                   300,  1 << 20, 0xffffffff, ~std::uint64_t{0}};
  for (std::uint64_t v : samples) w.write_varint(v);
  BitReader r(w.bytes());
  for (std::uint64_t v : samples) EXPECT_EQ(r.read_varint(), v);
}

TEST(BitStream, VarintSizes) {
  BitWriter small, large;
  small.write_varint(5);
  large.write_varint(1ULL << 40);
  EXPECT_EQ(small.bit_count(), 8u);
  EXPECT_EQ(large.bit_count(), 48u);  // 6 byte-groups
}

TEST(TableCodec, RangeRoundTrip) {
  const RangeCodec codec(1000);
  BitWriter w;
  codec.encode(w, {17, 941});
  codec.encode(w, {0, 0});
  BitReader r(w.bytes());
  const LeafRange a = codec.decode(r);
  const LeafRange b = codec.decode(r);
  EXPECT_EQ(a.lo, 17u);
  EXPECT_EQ(a.hi, 941u);
  EXPECT_TRUE(b.contains(0));
  EXPECT_FALSE(b.contains(1));
}

TEST(TableCodec, TreeLabelRoundTrip) {
  TreeLabel label;
  label.dfs = 42;
  label.light_edges = {{3, 1}, {17, 0}, {40, 7}};
  const TreeLabelCodec codec(64, 8);
  BitWriter w;
  codec.encode(w, label);
  BitReader r(w.bytes());
  const TreeLabel back = codec.decode(r);
  EXPECT_EQ(back.dfs, label.dfs);
  ASSERT_EQ(back.light_edges.size(), 3u);
  EXPECT_EQ(back.light_edges[2], (std::pair<NodeId, NodeId>{40, 7}));
}

TEST(TableCodec, TreeLabelsOfRealRouterRoundTrip) {
  const Graph g = make_random_tree(120, 3, 5);
  const MetricSpace metric(g);
  std::vector<NodeId> nodes(metric.n());
  for (NodeId u = 0; u < metric.n(); ++u) nodes[u] = u;
  const RootedTree tree(
      nodes, 0, [&](NodeId v) { return metric.next_hop(v, 0); },
      [&](NodeId v) { return metric.dist(v, metric.next_hop(v, 0)); });
  const CompactTreeRouter router(tree);
  const TreeLabelCodec codec(tree.size(), g.max_degree() + 1);

  BitWriter w;
  for (std::size_t v = 0; v < tree.size(); ++v) {
    codec.encode(w, router.label(static_cast<int>(v)));
  }
  BitReader r(w.bytes());
  for (std::size_t v = 0; v < tree.size(); ++v) {
    const TreeLabel back = codec.decode(r);
    const TreeLabel& original = router.label(static_cast<int>(v));
    EXPECT_EQ(back.dfs, original.dfs);
    EXPECT_EQ(back.light_edges, original.light_edges);
  }
  // Encoded size agrees with the router's own label_bits accounting up to
  // the varint count byte and the codec's uniform (vs per-anchor) port width.
  std::size_t accounted = 0;
  for (std::size_t v = 0; v < tree.size(); ++v) {
    accounted += router.label_bits(static_cast<int>(v));
  }
  EXPECT_LE(w.bit_count(), accounted + 16 * tree.size() + 64);
  EXPECT_GE(w.bit_count() + 64, accounted);
}

TEST(TableCodec, HierarchicalTableRoundTrip) {
  const Graph g = make_random_geometric(90, 2, 4, 44);
  const MetricSpace metric(g);
  const NetHierarchy hierarchy(metric);
  const HierarchicalLabeledScheme scheme(metric, hierarchy, 0.5);

  for (NodeId u = 0; u < metric.n(); u += 7) {
    std::size_t bits = 0;
    const std::vector<std::uint8_t> blob =
        encode_hierarchical_table(scheme, metric, u, &bits);
    EXPECT_GT(bits, 0u);
    EXPECT_LE(blob.size() * 8, bits + 7);

    const auto rings = decode_hierarchical_table(blob, metric, u,
                                                 hierarchy.top_level() + 1);
    ASSERT_EQ(rings.size(), scheme.rings(u).size());
    for (std::size_t level = 0; level < rings.size(); ++level) {
      ASSERT_EQ(rings[level].size(), scheme.rings(u)[level].size());
      for (std::size_t k = 0; k < rings[level].size(); ++k) {
        const auto& original = scheme.rings(u)[level][k];
        const auto& decoded = rings[level][k];
        EXPECT_EQ(decoded.range.lo, original.range.lo);
        EXPECT_EQ(decoded.range.hi, original.range.hi);
        // The decoded port resolves to the original next hop.
        if (original.next_hop == u) {
          EXPECT_EQ(decoded.port, metric.graph().degree(u));
        } else {
          ASSERT_LT(decoded.port, metric.graph().degree(u));
          EXPECT_EQ(metric.graph().neighbors(u)[decoded.port].to,
                    original.next_hop);
        }
      }
    }
  }
}

// Golden byte patterns pin the LSB-first wire format: the word-level
// BitWriter::write / BitReader::read must be bit-identical to the per-bit
// definition, so these arrays must never change.
TEST(BitStream, GoldenAlignedBytes) {
  BitWriter w;
  w.write(0xDEADBEEFCAFEBABEULL, 64);  // fully aligned: one whole word
  const std::vector<std::uint8_t> expected = {0xBE, 0xBA, 0xFE, 0xCA,
                                              0xEF, 0xBE, 0xAD, 0xDE};
  EXPECT_EQ(w.bytes(), expected);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(64), 0xDEADBEEFCAFEBABEULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitStream, GoldenUnalignedSpill) {
  BitWriter w;
  w.write(1, 1);
  w.write(0xAB, 8);  // straddles a byte boundary
  const std::vector<std::uint8_t> expected = {0x57, 0x01};
  EXPECT_EQ(w.bytes(), expected);
  EXPECT_EQ(w.bit_count(), 9u);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(1), 1u);
  EXPECT_EQ(r.read(8), 0xABu);
}

TEST(BitStream, GoldenMixedWidths) {
  BitWriter w;
  w.write(0b101, 3);     // unaligned
  w.write(0b00010, 5);   // re-aligns the cursor at bit 8
  w.write(0xBEEF, 16);   // aligned
  w.write(0x0DDC0FFEULL, 32);
  const std::vector<std::uint8_t> expected = {0x15, 0xEF, 0xBE, 0xFE,
                                              0x0F, 0xDC, 0x0D};
  EXPECT_EQ(w.bytes(), expected);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(3), 0b101u);
  EXPECT_EQ(r.read(5), 0b00010u);
  EXPECT_EQ(r.read(16), 0xBEEFu);
  EXPECT_EQ(r.read(32), 0x0DDC0FFEu);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitStream, FastPathMatchesBitwiseDefinition) {
  // Differential check: random mixed-width token streams against a per-bit
  // reference writer, covering every alignment the word-level writer and
  // reader can hit.
  Prng prng(4242);
  for (int iter = 0; iter < 25; ++iter) {
    BitWriter w;
    std::vector<std::uint8_t> ref;
    std::size_t ref_bits = 0;
    const auto ref_write = [&](std::uint64_t value, int width) {
      for (int b = 0; b < width; ++b) {
        if (ref_bits % 8 == 0) ref.push_back(0);
        if ((value >> b) & 1) {
          ref[ref_bits / 8] |= static_cast<std::uint8_t>(1u << (ref_bits % 8));
        }
        ++ref_bits;
      }
    };
    std::vector<std::pair<std::uint64_t, int>> tokens;
    for (int i = 0; i < 400; ++i) {
      const int width = static_cast<int>(prng.next_below(65));
      const std::uint64_t value =
          width == 64 ? prng.next_u64()
                      : prng.next_u64() & ((1ULL << width) - 1);
      w.write(value, width);
      ref_write(value, width);
      tokens.emplace_back(value, width);
    }
    ASSERT_EQ(w.bytes(), ref);
    ASSERT_EQ(w.bit_count(), ref_bits);
    BitReader r(w.bytes());
    for (const auto& [value, width] : tokens) {
      ASSERT_EQ(r.read(width), value);
    }
  }
}

// Per-bit definition of the LSB-first wire format: bit i of the stream is
// bit (i % 8) of byte i / 8. The oracle for BitReader's word-level read.
std::uint64_t reference_read(const std::vector<std::uint8_t>& bytes,
                             std::size_t bit_offset, int width) {
  std::uint64_t value = 0;
  for (int b = 0; b < width; ++b) {
    const std::size_t bit = bit_offset + static_cast<std::size_t>(b);
    if ((bytes[bit / 8] >> (bit % 8)) & 1) value |= std::uint64_t{1} << b;
  }
  return value;
}

template <typename Fn>
void expect_invariant_error(Fn&& fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "expected an InvariantError mentioning \"" << what << "\"";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(BitStream, ReadsEndingOnTheLastByteStayInBounds) {
  // Each buffer is exactly as long as the read needs, so a reader that
  // loads a whole word past the end trips ASan here.
  Prng prng(77);
  for (const int width : {1, 8, 57, 64}) {
    for (int shift = 0; shift < 8; ++shift) {
      const std::size_t bits = static_cast<std::size_t>(shift + width);
      std::vector<std::uint8_t> bytes((bits + 7) / 8);
      for (auto& byte : bytes) byte = static_cast<std::uint8_t>(prng.next_u64());
      BitReader r(bytes);
      EXPECT_EQ(r.read(shift), reference_read(bytes, 0, shift));
      EXPECT_EQ(r.read(width), reference_read(bytes, shift, width))
          << "width " << width << " shift " << shift;
      EXPECT_EQ(r.bits_consumed(), bits);
      const int past_end = static_cast<int>(bytes.size() * 8 - bits) + 1;
      expect_invariant_error([&] { r.read(past_end); }, "bit stream underflow");
    }
  }
}

TEST(BitStream, VarintFromUnalignedCursor) {
  const std::uint64_t samples[] = {0, 1, 127, 128, 300, 0xffffffff,
                                   ~std::uint64_t{0}};
  for (int shift = 1; shift < 8; ++shift) {
    BitWriter w;
    w.write(0, shift);
    for (const std::uint64_t v : samples) w.write_varint(v);
    w.write(1, 1);
    BitReader r(w.bytes());
    r.read(shift);
    for (const std::uint64_t v : samples) EXPECT_EQ(r.read_varint(), v);
    EXPECT_EQ(r.read(1), 1u);
  }
}

TEST(BitStream, TruncatedVarintUnderflows) {
  // Aligned: two continuation bytes and then the end of the buffer.
  const std::vector<std::uint8_t> aligned = {0x80, 0x80};
  BitReader r1(aligned);
  expect_invariant_error([&] { r1.read_varint(); }, "bit stream underflow");
  // Unaligned: every 8-bit group read from bit 3 on has its top bit set.
  const std::vector<std::uint8_t> unaligned = {0xff, 0xff, 0xff};
  BitReader r2(unaligned);
  r2.read(3);
  expect_invariant_error([&] { r2.read_varint(); }, "bit stream underflow");
}

TEST(BitStream, OverlongVarintIsRejected) {
  // Eleven continuation bytes, then a terminator, aligned and unaligned.
  std::vector<std::uint8_t> aligned(11, 0xff);
  aligned.push_back(0x01);
  BitReader r1(aligned);
  expect_invariant_error([&] { r1.read_varint(); }, "varint too long");

  std::vector<std::uint8_t> unaligned(13, 0xff);
  unaligned.push_back(0x00);
  BitReader r2(unaligned);
  r2.read(5);
  expect_invariant_error([&] { r2.read_varint(); }, "varint too long");
}

TEST(TableCodec, EncodedSizeTracksAccountedSize) {
  // The packed table must be in the same ballpark as (and not wildly larger
  // than) the storage_bits() accounting for the ring component, at every
  // node.
  for (const std::size_t side : {8u, 9u}) {
    const Graph g = make_grid(side, side);
    const MetricSpace metric(g);
    const NetHierarchy hierarchy(metric);
    const HierarchicalLabeledScheme scheme(metric, hierarchy, 0.5);
    for (NodeId u = 0; u < metric.n(); ++u) {
      std::size_t bits = 0;
      const std::vector<std::uint8_t> blob =
          encode_hierarchical_table(scheme, metric, u, &bits);
      EXPECT_LE(blob.size() * 8, bits + 7);
      const std::size_t accounted = scheme.storage_bits(u);
      EXPECT_LE(bits, 2 * accounted + 256);
      EXPECT_GE(4 * bits + 256, accounted);
    }
  }
}

}  // namespace
}  // namespace compactroute
