#pragma once
//
// Epoch-stamped node marks: a node set that clears in O(1). A node is marked
// iff its stamp equals the current epoch, so begin() forgets every mark by
// bumping the epoch; the array is zeroed only when it grows and on the
// 2^32-epoch wrap. Builders keep one `static thread_local` instance per call
// site, so thousands of small bounded queries pay O(touched) each, not O(n);
// one build step calls into another, and a shared instance would let the
// inner step clear the outer step's marks. Per-node payload arrays live
// beside the marks at the call site and mean something only while marked.
//
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace compactroute {

class EpochMarks {
 public:
  /// Starts a new use over nodes 0..n-1 with no node marked.
  void begin(std::size_t n) {
    if (stamp_.size() < n) stamp_.assign(n, 0);
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  void set(NodeId v) { stamp_[v] = epoch_; }
  bool test(NodeId v) const { return stamp_[v] == epoch_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

}  // namespace compactroute
