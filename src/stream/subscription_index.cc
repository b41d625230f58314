#include "stream/subscription_index.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <utility>

#include "stream/batch.h"

namespace usp {
namespace stream {

namespace {

/// Int64 view of a canonical key string ("17" -> 17); interval
/// subscriptions only apply to keys that are whole int64s.
bool ParseIntKey(const std::string& key, int64_t* out) {
  if (key.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(key.c_str(), &end, 10);
  if (errno != 0 || end != key.c_str() + key.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// SubscriptionIndex
// ---------------------------------------------------------------------------

size_t SubscriptionIndex::Bucket::size() const {
  size_t n = always.size();
  for (const ConditionGroup& g : groups) n += g.entries.size();
  return n;
}

void SubscriptionIndex::InsertIntoBucket(
    Bucket* bucket, SubscriptionId id, const SubscriptionCondition& cond,
    std::shared_ptr<const OnMatchFn> on_match) {
  if (!cond.active) {
    bucket->always.push_back(Entry{0.0, id, std::move(on_match)});
    return;
  }
  for (ConditionGroup& g : bucket->groups) {
    if (g.agg_column == cond.agg_column &&
        g.min_confidence == cond.min_confidence) {
      g.entries.push_back(Entry{cond.threshold, id, std::move(on_match)});
      g.dirty = true;
      return;
    }
  }
  ConditionGroup g;
  g.agg_column = cond.agg_column;
  g.min_confidence = cond.min_confidence;
  g.entries.push_back(Entry{cond.threshold, id, std::move(on_match)});
  bucket->groups.push_back(std::move(g));
}

bool SubscriptionIndex::EraseFromBucket(Bucket* bucket, SubscriptionId id,
                                        const SubscriptionCondition& cond) {
  auto erase_id = [id](std::vector<Entry>* entries) {
    for (auto it = entries->begin(); it != entries->end(); ++it) {
      if (it->id == id) {
        entries->erase(it);
        return true;
      }
    }
    return false;
  };
  if (!cond.active) return erase_id(&bucket->always);
  for (auto git = bucket->groups.begin(); git != bucket->groups.end();
       ++git) {
    if (git->agg_column != cond.agg_column ||
        git->min_confidence != cond.min_confidence) {
      continue;
    }
    if (!erase_id(&git->entries)) return false;
    if (git->entries.empty()) bucket->groups.erase(git);
    return true;
  }
  return false;
}

void SubscriptionIndex::Insert(SubscriptionId id,
                               const SubscriptionSpec& spec,
                               std::shared_ptr<const OnMatchFn> on_match) {
  switch (spec.scope.kind) {
    case SubscriptionScope::Kind::kExact:
      InsertIntoBucket(&exact_[spec.scope.exact_key], id, spec.condition,
                       std::move(on_match));
      break;
    case SubscriptionScope::Kind::kAll:
      InsertIntoBucket(&all_, id, spec.condition, std::move(on_match));
      break;
    case SubscriptionScope::Kind::kIntRange: {
      RangeSub r;
      r.lo = spec.scope.range_lo;
      r.hi = spec.scope.range_hi;
      r.condition = spec.condition;
      r.entry = Entry{spec.condition.threshold, id, std::move(on_match)};
      ranges_.push_back(std::move(r));
      range_index_dirty_ = true;
      break;
    }
  }
  ++subscriptions_;
}

bool SubscriptionIndex::Erase(SubscriptionId id,
                              const SubscriptionSpec& spec) {
  bool erased = false;
  switch (spec.scope.kind) {
    case SubscriptionScope::Kind::kExact: {
      auto it = exact_.find(spec.scope.exact_key);
      if (it == exact_.end()) return false;
      erased = EraseFromBucket(&it->second, id, spec.condition);
      // Refcount-zero release: the bucket (the shared dispatch state for
      // this key) is dropped with its last subscriber.
      if (erased && it->second.empty()) exact_.erase(it);
      break;
    }
    case SubscriptionScope::Kind::kAll:
      erased = EraseFromBucket(&all_, id, spec.condition);
      break;
    case SubscriptionScope::Kind::kIntRange:
      for (auto it = ranges_.begin(); it != ranges_.end(); ++it) {
        if (it->entry.id == id) {
          ranges_.erase(it);
          range_index_dirty_ = true;
          erased = true;
          break;
        }
      }
      break;
  }
  if (erased) --subscriptions_;
  return erased;
}

double SubscriptionIndex::ProbAt(const Tuple& row, const ProbFn& prob,
                                 size_t col, double t) {
  for (size_t i = 0; i < memo_ts_.size(); ++i) {
    if (memo_cols_[i] == static_cast<double>(col) && memo_ts_[i] == t) {
      return memo_probs_[i];
    }
  }
  // Row layout [group_key, agg_1..agg_m]: aggregate column j is value
  // j + 1. Out-of-range columns never fire (the subscription referenced a
  // column the template does not produce).
  const size_t value_index = col + 1;
  const double p = value_index < row.num_values()
                       ? prob(row.value(value_index), t)
                       : -1.0;
  memo_cols_.push_back(static_cast<double>(col));
  memo_ts_.push_back(t);
  memo_probs_.push_back(p);
  return p;
}

void SubscriptionIndex::MatchBucket(Bucket* bucket, const Tuple& row,
                                    const ProbFn& prob,
                                    std::vector<MatchResult>* out) {
  for (const Entry& e : bucket->always) {
    out->push_back(MatchResult{e.id, e.on_match});
  }
  for (ConditionGroup& g : bucket->groups) {
    if (g.dirty) {
      std::sort(g.entries.begin(), g.entries.end(),
                [](const Entry& a, const Entry& b) {
                  return a.threshold != b.threshold ? a.threshold < b.threshold
                                                    : a.id < b.id;
                });
      g.dirty = false;
    }
    // P(X > t) is non-increasing in t, so the subscribers whose condition
    // holds form a prefix of the ascending-threshold order; the boundary
    // costs O(log M) exact probability evaluations (each the same
    // arithmetic a per-query HAVING filter would run, memoised per
    // distinct threshold).
    const size_t col = g.agg_column;
    const double conf = g.min_confidence;
    const auto firing_end = std::partition_point(
        g.entries.begin(), g.entries.end(), [&](const Entry& e) {
          return ProbAt(row, prob, col, e.threshold) >= conf;
        });
    for (auto it = g.entries.begin(); it != firing_end; ++it) {
      out->push_back(MatchResult{it->id, it->on_match});
    }
  }
}

void SubscriptionIndex::EnsureRangeIndex() {
  if (!range_index_dirty_) return;
  range_sorted_.resize(ranges_.size());
  for (size_t i = 0; i < ranges_.size(); ++i) {
    range_sorted_[i] = static_cast<uint32_t>(i);
  }
  std::sort(range_sorted_.begin(), range_sorted_.end(),
            [this](uint32_t a, uint32_t b) {
              return ranges_[a].lo != ranges_[b].lo
                         ? ranges_[a].lo < ranges_[b].lo
                         : ranges_[a].entry.id < ranges_[b].entry.id;
            });
  range_subtree_hi_.assign(ranges_.size(),
                           std::numeric_limits<int64_t>::min());
  if (!ranges_.empty()) BuildRangeNode(0, ranges_.size());
  range_index_dirty_ = false;
}

int64_t SubscriptionIndex::BuildRangeNode(size_t lo, size_t hi) {
  if (lo >= hi) return std::numeric_limits<int64_t>::min();
  const size_t mid = (lo + hi) / 2;
  int64_t max_hi = ranges_[range_sorted_[mid]].hi;
  max_hi = std::max(max_hi, BuildRangeNode(lo, mid));
  max_hi = std::max(max_hi, BuildRangeNode(mid + 1, hi));
  range_subtree_hi_[mid] = max_hi;
  return max_hi;
}

void SubscriptionIndex::QueryRanges(size_t lo, size_t hi, int64_t key,
                                    const Tuple& row, const ProbFn& prob,
                                    std::vector<MatchResult>* out) {
  if (lo >= hi) return;
  const size_t mid = (lo + hi) / 2;
  // Augmented-BST pruning: no interval in this subtree reaches the key.
  if (range_subtree_hi_[mid] < key) return;
  QueryRanges(lo, mid, key, row, prob, out);
  const RangeSub& r = ranges_[range_sorted_[mid]];
  if (r.lo > key) return;  // right subtree's lo values only grow
  if (key <= r.hi) {
    const bool fires =
        !r.condition.active ||
        ProbAt(row, prob, r.condition.agg_column, r.condition.threshold) >=
            r.condition.min_confidence;
    if (fires) out->push_back(MatchResult{r.entry.id, r.entry.on_match});
  }
  QueryRanges(mid + 1, hi, key, row, prob, out);
}

void SubscriptionIndex::MatchRow(const Tuple& row, const ProbFn& prob,
                                 std::vector<MatchResult>* out) {
  if (row.num_values() == 0 || !row.value(0).is_string()) return;
  memo_cols_.clear();
  memo_ts_.clear();
  memo_probs_.clear();
  const std::string& key = row.value(0).AsString();
  const auto it = exact_.find(key);
  if (it != exact_.end()) MatchBucket(&it->second, row, prob, out);
  if (!all_.empty()) MatchBucket(&all_, row, prob, out);
  if (!ranges_.empty()) {
    int64_t int_key = 0;
    if (ParseIntKey(key, &int_key)) {
      EnsureRangeIndex();
      QueryRanges(0, range_sorted_.size(), int_key, row, prob, out);
    }
  }
}

SubscriptionIndex::Stats SubscriptionIndex::GetStats() const {
  Stats s;
  s.subscriptions = subscriptions_;
  s.exact_buckets = exact_.size();
  s.range_entries = ranges_.size();
  s.all_entries = all_.size();
  return s;
}

// ---------------------------------------------------------------------------
// ShardedSubscriptionTable
// ---------------------------------------------------------------------------

ShardedSubscriptionTable::ShardedSubscriptionTable(size_t num_partitions) {
  partitions_.reserve(num_partitions == 0 ? 1 : num_partitions);
  for (size_t i = 0; i < std::max<size_t>(1, num_partitions); ++i) {
    partitions_.push_back(std::make_unique<Partition>());
  }
}

common::Status ShardedSubscriptionTable::Subscribe(SubscriptionId id,
                                                   SubscriptionSpec spec) {
  if (spec.scope.kind == SubscriptionScope::Kind::kIntRange &&
      spec.scope.range_lo > spec.scope.range_hi) {
    return common::Status::InvalidArgument(
        "subscription key range is empty (lo > hi)");
  }
  RegistryEntry entry;
  entry.on_match =
      spec.on_match
          ? std::make_shared<const SubscriptionIndex::OnMatchFn>(
                std::move(spec.on_match))
          : nullptr;
  spec.on_match = nullptr;
  entry.spec = spec;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    if (!registry_.emplace(id, entry).second) {
      return common::Status::InvalidArgument(
          "duplicate subscription id " + std::to_string(id));
    }
  }
  if (spec.scope.kind == SubscriptionScope::Kind::kExact) {
    // Only the partition whose shard owns this key's data ever sees its
    // result rows.
    Partition& p = *partitions_[PartitionOfKey(spec.scope.exact_key)];
    std::lock_guard<std::mutex> lock(p.mu);
    p.index.Insert(id, spec, entry.on_match);
  } else {
    for (auto& part : partitions_) {
      std::lock_guard<std::mutex> lock(part->mu);
      part->index.Insert(id, spec, entry.on_match);
    }
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  return common::Status::OK();
}

bool ShardedSubscriptionTable::Unsubscribe(SubscriptionId id) {
  RegistryEntry entry;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = registry_.find(id);
    if (it == registry_.end()) return false;
    entry = std::move(it->second);
    registry_.erase(it);
  }
  if (entry.spec.scope.kind == SubscriptionScope::Kind::kExact) {
    Partition& p = *partitions_[PartitionOfKey(entry.spec.scope.exact_key)];
    std::lock_guard<std::mutex> lock(p.mu);
    p.index.Erase(id, entry.spec);
  } else {
    for (auto& part : partitions_) {
      std::lock_guard<std::mutex> lock(part->mu);
      part->index.Erase(id, entry.spec);
    }
  }
  count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void ShardedSubscriptionTable::MatchRow(
    size_t p, const Tuple& row, const SubscriptionIndex::ProbFn& prob,
    std::vector<SubscriptionIndex::MatchResult>* out) {
  Partition& part = *partitions_[p % partitions_.size()];
  std::lock_guard<std::mutex> lock(part.mu);
  part.index.MatchRow(row, prob, out);
}

SubscriptionIndex::Stats ShardedSubscriptionTable::PartitionStats(
    size_t p) const {
  const Partition& part = *partitions_[p % partitions_.size()];
  std::lock_guard<std::mutex> lock(part.mu);
  return part.index.GetStats();
}

SubscriptionIndex::Stats ShardedSubscriptionTable::TotalStats() const {
  SubscriptionIndex::Stats total;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    const SubscriptionIndex::Stats s = PartitionStats(p);
    total.subscriptions += s.subscriptions;
    total.exact_buckets += s.exact_buckets;
    total.range_entries += s.range_entries;
    total.all_entries += s.all_entries;
  }
  return total;
}

// ---------------------------------------------------------------------------
// SubscriptionDispatchOperator
// ---------------------------------------------------------------------------

SubscriptionDispatchOperator::SubscriptionDispatchOperator(
    std::string name, std::shared_ptr<ShardedSubscriptionTable> table,
    size_t partition, SubscriptionIndex::ProbFn prob)
    : Operator(std::move(name)),
      table_(std::move(table)),
      partition_(partition),
      prob_(std::move(prob)) {}

common::Status SubscriptionDispatchOperator::ProcessBatch(
    const TupleBatch& batch, Collector* out) {
  for (const Tuple& tuple : batch) {
    scratch_.clear();
    table_->MatchRow(partition_, tuple, prob_, &scratch_);
    if (scratch_.empty()) continue;
    // Deterministic per-row emission order (the index returns matches in
    // bucket-internal order, which subscribe/unsubscribe churn perturbs).
    std::sort(scratch_.begin(), scratch_.end(),
              [](const SubscriptionIndex::MatchResult& a,
                 const SubscriptionIndex::MatchResult& b) {
                return a.id < b.id;
              });
    for (const SubscriptionIndex::MatchResult& m : scratch_) {
      Tuple tagged = tuple;
      tagged.AppendValue(static_cast<int64_t>(m.id));
      if (m.on_match && *m.on_match) (*m.on_match)(tagged);
      out->Emit(std::move(tagged));
    }
  }
  return common::Status::OK();
}

}  // namespace stream
}  // namespace usp
