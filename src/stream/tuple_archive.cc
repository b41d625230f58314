#include "stream/tuple_archive.h"

namespace usp {
namespace stream {

common::Result<Tuple> TupleArchive::Lookup(TupleId id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return common::Status::NotFound("tuple id not in archive");
  }
  return it->second;
}

std::vector<Tuple> TupleArchive::ResolveLineage(
    const std::vector<TupleId>& ids) const {
  std::vector<Tuple> out;
  out.reserve(ids.size());
  for (TupleId id : ids) {
    const auto it = by_id_.find(id);
    if (it != by_id_.end()) out.push_back(it->second);
  }
  return out;
}

void TupleArchive::EvictBefore(int64_t watermark_us) {
  for (auto it = by_id_.begin(); it != by_id_.end();) {
    if (it->second.timestamp() < watermark_us) {
      it = by_id_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace stream
}  // namespace usp
