// Predicate-indexed standing-subscription dispatch: the physical half of
// standing-query multiplexing. One windowed group-by aggregate computes
// each (window, group) result row ONCE; this layer then routes the row to
// the subset of registered subscriptions whose predicates it satisfies in
// O(log N + matches) instead of evaluating N per-query filters.
//
// A subscription is (key scope, optional threshold condition):
//
//   * key scope — which group keys the subscriber watches: one exact key
//     (hash-bucket dispatch), an inclusive int64 interval over the key
//     (interval-tree dispatch), or every group;
//   * threshold condition — the per-subscriber HAVING clause
//     P(agg > threshold) >= min_confidence over one aggregate output
//     column, evaluated with the SAME arithmetic as a per-query
//     uncertain::MakeHavingProbGreater filter (the probability evaluator
//     is injected as a ProbFn, keeping stream/ independent of uncertain/).
//
// Threshold resolution exploits monotonicity: P(X > t) is non-increasing
// in t, so within one (aggregate column, confidence) group the firing
// subscribers form a prefix of the ascending-threshold order. One row
// therefore costs O(log M) exact CDF evaluations per distinct confidence
// group (std::partition_point over the sorted thresholds) plus O(matches),
// and repeated probes of one threshold are memoised per row — the shared
// CDF is evaluated once per distinct threshold, never once per subscriber.
//
// The subscription table is partitioned the same way the data is: an
// exact-key subscription lives ONLY on the partition whose shard owns that
// key (std::hash of the canonical key string, the ShardedExecutor rule),
// so a shard's dispatch operator consults a table slice proportional to
// its own key range. Interval and all-groups subscriptions are replicated
// to every partition (any shard may own keys they cover). Buckets are
// reference-counted by membership: an unsubscribe removes one entry, and
// the bucket's shared state is released only when its last subscriber
// leaves.

#ifndef USP_STREAM_SUBSCRIPTION_INDEX_H_
#define USP_STREAM_SUBSCRIPTION_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "stream/operator.h"

namespace usp {
namespace stream {

using SubscriptionId = uint64_t;

/// Group-key scope of one subscription.
struct SubscriptionScope {
  enum class Kind : uint8_t {
    kAll,       ///< every group
    kExact,     ///< one canonical key string
    kIntRange,  ///< inclusive [lo, hi] over int64-valued group keys
  };
  Kind kind = Kind::kAll;
  /// kExact: CanonicalKeyString of the watched group key.
  std::string exact_key;
  /// kIntRange bounds (inclusive).
  int64_t range_lo = 0;
  int64_t range_hi = 0;
};

/// Optional per-subscriber HAVING clause over one aggregate output column
/// of the shared result row [group_key, agg_1..agg_m]:
/// fires iff P(agg_column > threshold) >= min_confidence.
struct SubscriptionCondition {
  bool active = false;
  size_t agg_column = 0;  ///< 0 = first aggregate column (row value 1)
  double threshold = 0.0;
  double min_confidence = 0.5;
};

struct SubscriptionSpec {
  SubscriptionScope scope;
  SubscriptionCondition condition;
  /// Optional per-subscription callback, invoked with the tagged result
  /// row [group_key, agg_1..agg_m, subscription_id] from the worker thread
  /// that closed the window, outside all subscription-table locks.
  std::function<void(const Tuple&)> on_match;
};

/// \brief One partition of the predicate index. Not thread-safe on its
/// own; ShardedSubscriptionTable serialises access per partition.
class SubscriptionIndex {
 public:
  /// P(value > threshold); injected by the query layer (ProbGreaterThan).
  using ProbFn = std::function<double(const Value&, double)>;
  using OnMatchFn = std::function<void(const Tuple&)>;

  struct MatchResult {
    SubscriptionId id = 0;
    /// Shared so a concurrent unsubscribe cannot free the callback
    /// between match collection (under the partition lock) and
    /// invocation (outside it). Null when the subscription has none.
    std::shared_ptr<const OnMatchFn> on_match;
  };

  struct Stats {
    size_t subscriptions = 0;
    size_t exact_buckets = 0;
    size_t range_entries = 0;
    size_t all_entries = 0;
  };

  void Insert(SubscriptionId id, const SubscriptionSpec& spec,
              std::shared_ptr<const OnMatchFn> on_match);
  /// Removes `id` (located via `spec`'s scope); returns whether it was
  /// present. Empty exact buckets are erased — shared bucket state lives
  /// exactly as long as its membership refcount.
  bool Erase(SubscriptionId id, const SubscriptionSpec& spec);

  /// Appends every subscription matching the aggregate result row
  /// [group_key(string), agg_1..agg_m] to `out` (unordered).
  void MatchRow(const Tuple& row, const ProbFn& prob,
                std::vector<MatchResult>* out);

  Stats GetStats() const;

 private:
  struct Entry {
    double threshold = 0.0;  ///< unused for unconditioned entries
    SubscriptionId id = 0;
    std::shared_ptr<const OnMatchFn> on_match;
  };
  /// Subscribers of one bucket sharing (agg_column, min_confidence):
  /// ascending-threshold order once sorted, so the firing set is the
  /// prefix found by partition_point. Appends just mark the group dirty —
  /// bulk registration stays O(M log M) total, not O(M^2).
  struct ConditionGroup {
    size_t agg_column = 0;
    double min_confidence = 0.5;
    std::vector<Entry> entries;
    bool dirty = false;
  };
  struct Bucket {
    std::vector<Entry> always;  ///< unconditioned subscribers
    std::vector<ConditionGroup> groups;
    bool empty() const { return always.empty() && groups.empty(); }
    size_t size() const;
  };
  struct RangeSub {
    int64_t lo = 0;
    int64_t hi = 0;
    SubscriptionCondition condition;
    Entry entry;
  };

  static void InsertIntoBucket(Bucket* bucket, SubscriptionId id,
                               const SubscriptionCondition& cond,
                               std::shared_ptr<const OnMatchFn> on_match);
  static bool EraseFromBucket(Bucket* bucket, SubscriptionId id,
                              const SubscriptionCondition& cond);

  /// Per-row memoised P(row value > threshold) for aggregate column `col`.
  double ProbAt(const Tuple& row, const ProbFn& prob, size_t col, double t);

  void MatchBucket(Bucket* bucket, const Tuple& row, const ProbFn& prob,
                   std::vector<MatchResult>* out);

  /// Interval tree over ranges_: an implicit balanced BST on the
  /// lo-sorted order, each node augmented with its subtree's max hi.
  void EnsureRangeIndex();
  int64_t BuildRangeNode(size_t lo, size_t hi);
  void QueryRanges(size_t lo, size_t hi, int64_t key, const Tuple& row,
                   const ProbFn& prob, std::vector<MatchResult>* out);

  std::unordered_map<std::string, Bucket> exact_;
  Bucket all_;
  std::vector<RangeSub> ranges_;
  bool range_index_dirty_ = false;
  std::vector<uint32_t> range_sorted_;    ///< indices into ranges_, by lo
  std::vector<int64_t> range_subtree_hi_;  ///< per sorted slot
  /// Row-scoped memo of (agg_column, threshold) -> probability; cleared at
  /// each MatchRow. Linear scan: a row probes O(log M) thresholds.
  std::vector<double> memo_cols_, memo_ts_, memo_probs_;
  size_t subscriptions_ = 0;
};

/// \brief The subscription table, partitioned alongside the data.
///
/// Subscribe/Unsubscribe may be called from any thread at any time
/// (including mid-stream); dispatch operators lock one partition briefly
/// per result row. Exact-key subscriptions are stored only on the
/// partition whose shard owns the key; interval and all-groups
/// subscriptions are replicated to every partition.
class ShardedSubscriptionTable {
 public:
  explicit ShardedSubscriptionTable(size_t num_partitions);

  /// Partition that owns `canonical_key` — std::hash of the canonical key
  /// string mod the partition count, the ShardedExecutor placement rule,
  /// so a key's subscriptions always live with the key's data.
  size_t PartitionOfKey(const std::string& canonical_key) const {
    return std::hash<std::string>{}(canonical_key) % partitions_.size();
  }

  common::Status Subscribe(SubscriptionId id, SubscriptionSpec spec);
  /// Removes `id`; returns false when unknown. Shared per-bucket state is
  /// released only when the bucket's last subscriber leaves.
  bool Unsubscribe(SubscriptionId id);

  size_t subscription_count() const {
    return count_.load(std::memory_order_relaxed);
  }
  size_t num_partitions() const { return partitions_.size(); }

  /// Matches one aggregate result row against partition `p` (briefly
  /// locked); results are appended unordered.
  void MatchRow(size_t p, const Tuple& row,
                const SubscriptionIndex::ProbFn& prob,
                std::vector<SubscriptionIndex::MatchResult>* out);

  SubscriptionIndex::Stats PartitionStats(size_t p) const;
  /// Sum over partitions (replicated range/all entries counted once per
  /// partition — the actual resident state).
  SubscriptionIndex::Stats TotalStats() const;

 private:
  struct Partition {
    mutable std::mutex mu;
    SubscriptionIndex index;
  };
  /// Where an id lives, for Unsubscribe routing.
  struct RegistryEntry {
    SubscriptionSpec spec;
    std::shared_ptr<const SubscriptionIndex::OnMatchFn> on_match;
  };

  std::vector<std::unique_ptr<Partition>> partitions_;
  mutable std::mutex registry_mu_;
  std::unordered_map<SubscriptionId, RegistryEntry> registry_;
  std::atomic<size_t> count_{0};
};

/// \brief The physical dispatch operator.
///
/// Sits between the shared windowed aggregate and the sink in each
/// shard's plan; consumes result rows [group_key, agg_1..agg_m] and emits
/// one tagged row [group_key, agg_1..agg_m, subscription_id] (same
/// timestamp and lineage) per matching subscription, in ascending
/// subscription-id order per input row. Per-subscription callbacks are
/// invoked after the partition lock is released.
class SubscriptionDispatchOperator final : public Operator {
 public:
  SubscriptionDispatchOperator(std::string name,
                               std::shared_ptr<ShardedSubscriptionTable> table,
                               size_t partition,
                               SubscriptionIndex::ProbFn prob);

 protected:
  common::Status ProcessBatch(const TupleBatch& batch,
                              Collector* out) override;

 private:
  std::shared_ptr<ShardedSubscriptionTable> table_;
  size_t partition_;
  SubscriptionIndex::ProbFn prob_;
  std::vector<SubscriptionIndex::MatchResult> scratch_;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_SUBSCRIPTION_INDEX_H_
