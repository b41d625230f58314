#include "stream/group_by.h"

#include "stream/batch.h"

namespace usp {
namespace stream {

common::Status GroupByAggregateOperator::ProcessBatch(const TupleBatch& batch,
                                                      Collector* out) {
  // Evaluate the key function once per tuple; AppendRun copies the cached
  // keys into every window the run joins.
  batch_keys_.clear();
  batch_keys_.reserve(batch.size());
  for (const Tuple& t : batch) batch_keys_.push_back(key_fn_(t));
  const common::Status st = WindowedOperator::ProcessBatch(batch, out);
  batch_keys_.clear();
  return st;
}

void GroupByAggregateOperator::AppendRun(int64_t window_start,
                                         const Tuple* tuples, size_t count,
                                         size_t batch_offset) {
  WindowedOperator::AppendRun(window_start, tuples, count, batch_offset);
  std::vector<std::string>& keys = open_keys_[window_start];
  keys.insert(keys.end(), batch_keys_.begin() + batch_offset,
              batch_keys_.begin() + batch_offset + count);
}

common::Status GroupByAggregateOperator::EmitWindow(
    int64_t window_start, int64_t window_end, const std::vector<Tuple>& tuples,
    Collector* out) {
  // Take this window's cached keys (kept aligned with the buffer by
  // AppendRun); recompute defensively if they ever went out of sync.
  std::vector<std::string> keys;
  if (const auto it = open_keys_.find(window_start); it != open_keys_.end()) {
    keys = std::move(it->second);
    open_keys_.erase(it);
  }
  if (keys.size() != tuples.size()) {
    keys.clear();
    keys.reserve(tuples.size());
    for (const Tuple& t : tuples) keys.push_back(key_fn_(t));
  }
  // Group while preserving first-seen key order for deterministic output.
  std::map<std::string, std::vector<const Tuple*>> groups;
  std::vector<std::string> order;
  for (size_t i = 0; i < tuples.size(); ++i) {
    auto [it, inserted] = groups.try_emplace(std::move(keys[i]));
    if (inserted) order.push_back(it->first);
    it->second.push_back(&tuples[i]);
  }
  for (const std::string& key : order) {
    const std::vector<const Tuple*>& group = groups[key];
    Tuple result(window_end, {Value(key)});
    for (const AggregateSpec& spec : aggregates_) {
      auto v = spec.fn(group);
      if (!v.ok()) return v.status();
      result.AppendValue(v.MoveValueUnsafe());
    }
    std::vector<TupleId> lineage;
    for (const Tuple* t : group) {
      lineage.insert(lineage.end(), t->lineage().begin(), t->lineage().end());
    }
    result.SetLineage(std::move(lineage));
    if (having_ && !having_(result)) continue;
    out->Emit(std::move(result));
  }
  return common::Status::OK();
}

}  // namespace stream
}  // namespace usp
