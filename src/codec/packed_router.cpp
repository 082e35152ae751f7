#include "codec/packed_router.hpp"

#include "codec/bitstream.hpp"
#include "codec/table_codec.hpp"
#include "core/check.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace compactroute {

PackedHierarchicalRouter::PackedHierarchicalRouter(
    const HierarchicalLabeledScheme& scheme, const MetricSpace& metric)
    : graph_(&metric.graph()),
      metric_(&metric),
      n_(metric.n()),
      num_levels_(scheme.hierarchy().top_level() + 1) {
  CR_OBS_SCOPED_TIMER("preprocess.codec.pack");
  CR_OBS_SPAN("preprocess.codec.pack", "construct");
  blobs_.resize(n_);
  blob_bits_.resize(n_);
  const IdCodec labels(n_);
  for (NodeId u = 0; u < n_; ++u) {
    // Blob layout: [own label][rings as in encode_hierarchical_table].
    BitWriter writer;
    labels.encode(writer, scheme.hierarchy().leaf_label(u));
    std::size_t ring_bits = 0;
    const std::vector<std::uint8_t> rings =
        encode_hierarchical_table(scheme, metric, u, &ring_bits);
    // Re-append the ring stream bit by bit to keep one contiguous blob.
    BitReader reader(rings);
    for (std::size_t consumed = 0; consumed < ring_bits; ++consumed) {
      writer.write(reader.read(1), 1);
    }
    blobs_[u] = writer.bytes();
    blob_bits_[u] = writer.bit_count();
  }
}

std::pair<NodeId, std::vector<std::vector<PackedHierarchicalRouter::Entry>>>
PackedHierarchicalRouter::decode(NodeId u) const {
  const IdCodec labels(n_);
  const RangeCodec ranges(n_);
  const IdCodec ports(std::max<std::size_t>(graph_->degree(u) + 1, 2));
  BitReader reader(blobs_[u]);
  const NodeId own_label = labels.decode(reader);
  std::vector<std::vector<Entry>> rings(num_levels_);
  for (auto& ring : rings) {
    const std::uint64_t count = reader.read_varint();
    // A ring holds at most one entry per node; a corrupt count must throw
    // here, not turn into a huge allocation.
    CR_CHECK_MSG(count <= n_, "packed ring size out of range");
    ring.resize(count);
    for (Entry& entry : ring) {
      entry.range = ranges.decode(reader);
      entry.port = static_cast<std::uint32_t>(ports.decode(reader));
    }
  }
  return {own_label, std::move(rings)};
}

RouteResult PackedHierarchicalRouter::route(NodeId src, NodeId dest_label) const {
  CR_CHECK(dest_label < n_);
  RouteResult result;
  result.path.push_back(src);
  NodeId pos = src;
  for (;;) {
    const auto [own_label, rings] = decode(pos);
    if (own_label == dest_label) {
      result.delivered = true;
      result.cost = path_cost(*metric_, result.path);
      return result;
    }
    NodeId next = kInvalidNode;
    for (const auto& ring : rings) {
      for (const Entry& entry : ring) {
        if (!entry.range.contains(dest_label)) continue;
        CR_CHECK_MSG(entry.port < graph_->degree(pos),
                     "self entry can only match at the destination");
        next = graph_->neighbors(pos)[entry.port].to;
        break;
      }
      if (next != kInvalidNode) break;
    }
    CR_CHECK_MSG(next != kInvalidNode, "top ring always matches");
    pos = next;
    result.path.push_back(pos);
    CR_CHECK_MSG(result.path.size() <= 8 * n_, "routing did not converge");
  }
}

}  // namespace compactroute
