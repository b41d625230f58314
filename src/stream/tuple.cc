#include "stream/tuple.h"

#include <atomic>
#include <cstdio>
#include <functional>

namespace usp {
namespace stream {

TupleId NextTupleId() {
  // Each thread takes ids in blocks from the shared counter, so threads
  // building tuples at once (producers and shard workers) touch its cache
  // line once per block, not once per tuple.
  constexpr TupleId kBlock = 4096;
  static std::atomic<TupleId> next_block{1};
  thread_local TupleId next = 0;
  thread_local TupleId block_end = 0;
  if (next == block_end) {
    next = next_block.fetch_add(kBlock, std::memory_order_relaxed);
    block_end = next + kBlock;
  }
  return next++;
}

void Tuple::SetLineage(std::vector<TupleId> ids) {
  // Lineage gathered in arrival order is usually already strictly
  // increasing, and then needs neither the sort nor the dedup.
  if (std::adjacent_find(ids.begin(), ids.end(),
                         std::greater_equal<TupleId>()) != ids.end()) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  lineage_ = std::move(ids);
  base_lineage_ = false;
}

void Tuple::MergeLineageFrom(const Tuple& other) {
  const LineageView mine = lineage();
  const LineageView theirs = other.lineage();
  std::vector<TupleId> merged;
  merged.reserve(mine.size() + theirs.size());
  std::set_union(mine.begin(), mine.end(), theirs.begin(), theirs.end(),
                 std::back_inserter(merged));
  lineage_ = std::move(merged);
  base_lineage_ = false;
}

bool Tuple::SharesLineageWith(const Tuple& other) const {
  const LineageView mine = lineage();
  const LineageView theirs = other.lineage();
  auto it1 = mine.begin();
  auto it2 = theirs.begin();
  while (it1 != mine.end() && it2 != theirs.end()) {
    if (*it1 == *it2) return true;
    if (*it1 < *it2) {
      ++it1;
    } else {
      ++it2;
    }
  }
  return false;
}

size_t Tuple::ApproxBytes() const {
  // Flat charge per buffered distribution handle: the control block plus a
  // typical small-parameter pdf object (Gaussian/GMM component scale). A
  // base tuple's inline lineage is inside sizeof(Tuple).
  constexpr size_t kDistributionHandleBytes = 128;
  size_t bytes = sizeof(Tuple) + values_.capacity() * sizeof(Value) +
                 lineage_.capacity() * sizeof(TupleId);
  for (const Value& v : values_) {
    if (v.is_string()) {
      bytes += v.AsString().capacity();
    } else if (v.is_distribution()) {
      bytes += kDistributionHandleBytes;
    }
  }
  return bytes;
}

std::string Tuple::ToString() const {
  char head[48];
  snprintf(head, sizeof(head), "#%llu@%lld[",
           static_cast<unsigned long long>(id_),
           static_cast<long long>(timestamp_));
  std::string s = head;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i) s += ", ";
    s += values_[i].ToString();
  }
  s += "]";
  return s;
}

}  // namespace stream
}  // namespace usp
