// The TupleArchive implements §3's "archives these input tuples for later
// computation of the query result distributions": independent tuples are
// stored by id so a downstream operator can resolve a lineage set back to
// the distributions it needs.

#ifndef USP_STREAM_TUPLE_ARCHIVE_H_
#define USP_STREAM_TUPLE_ARCHIVE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "stream/tuple.h"

namespace usp {
namespace stream {

/// \brief Id-addressable store of archived base tuples (§3, operator A4 /
/// J1 example: the last operator "uses the tuple lineage and previously
/// archived independent tuples to compute its result distributions").
/// Not thread-safe: an operator that resolves lineage owns its archive
/// and evicts it from OnWatermark, as join buffers are evicted.
class TupleArchive {
 public:
  void Archive(const Tuple& tuple) { by_id_.emplace(tuple.id(), tuple); }

  /// Lookup by id; error if the id was never archived.
  common::Result<Tuple> Lookup(TupleId id) const;

  /// Resolve a lineage set to archived tuples; ids missing from the
  /// archive are skipped (they belonged to pruned streams).
  std::vector<Tuple> ResolveLineage(const std::vector<TupleId>& ids) const;

  /// Drop archived tuples older than `watermark_us` to bound memory.
  void EvictBefore(int64_t watermark_us);

  size_t size() const { return by_id_.size(); }

 private:
  std::unordered_map<TupleId, Tuple> by_id_;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_TUPLE_ARCHIVE_H_
