#include "stream/pane_window.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "stream/batch.h"

namespace usp {
namespace stream {

using common::CeilToMultiple;
using common::FloorToMultiple;

namespace {

/// Slot assignment under signature sharing: each column maps to the slot
/// of the first earlier column with the same non-empty partial_signature,
/// or a fresh slot. Returns slot_of (per column); fills `slot_rep` with
/// the representative column per slot.
std::vector<size_t> AssignPartialSlots(
    const std::vector<PaneAggregateSpec>& specs,
    std::vector<size_t>* slot_rep) {
  std::vector<size_t> slot_of(specs.size());
  slot_rep->clear();
  for (size_t a = 0; a < specs.size(); ++a) {
    size_t slot = slot_rep->size();
    if (!specs[a].partial_signature.empty()) {
      for (size_t s = 0; s < slot_rep->size(); ++s) {
        if (specs[(*slot_rep)[s]].partial_signature ==
            specs[a].partial_signature) {
          slot = s;
          break;
        }
      }
    }
    if (slot == slot_rep->size()) slot_rep->push_back(a);
    slot_of[a] = slot;
  }
  return slot_of;
}

}  // namespace

size_t CountDistinctPartialSlots(const std::vector<PaneAggregateSpec>& specs) {
  std::vector<size_t> slot_rep;
  AssignPartialSlots(specs, &slot_rep);
  return slot_rep.size();
}

PanedGroupByAggregateOperator::PanedGroupByAggregateOperator(
    std::string name, WindowSpec spec, KeyFn key_fn,
    std::vector<PaneAggregateSpec> aggregates, HavingFn having)
    : Operator(std::move(name)),
      spec_(spec),
      pane_us_(std::gcd(spec.size_us, spec.slide_us)),
      key_fn_(std::move(key_fn)),
      aggregates_(std::move(aggregates)),
      having_(std::move(having)),
      closed_start_(std::numeric_limits<int64_t>::min()) {
  assert(spec.size_us > 0 && spec.slide_us > 0 &&
         spec.slide_us <= spec.size_us);
  slot_of_ = AssignPartialSlots(aggregates_, &slot_rep_);
}

int64_t PanedGroupByAggregateOperator::EarliestOpenWindowStart() const {
  // Pane boundaries are multiples of gcd(size, slide), so window membership
  // is uniform across a pane: pane [p, p+g) belongs to window [s, s+size)
  // iff s <= p and p + g <= s + size. The earliest candidate derives from
  // the earliest retained pane, bounded below by the emission cursor (a
  // pane outlives windows it already served).
  const int64_t p0 = panes_.begin()->first;
  int64_t s = CeilToMultiple(p0 + pane_us_ - spec_.size_us, spec_.slide_us);
  if (closed_start_ != std::numeric_limits<int64_t>::min()) {
    s = std::max(s, closed_start_ + spec_.slide_us);
  }
  return s;
}

common::Status PanedGroupByAggregateOperator::AddToPane(Pane& pane,
                                                        const Tuple& tuple,
                                                        GroupKey key) {
  // Tuple-rate estimate of the pane-partial + lineage state this tuple
  // adds; mirrored into the buffered_bytes gauge so pane-buffer growth is
  // observable.
  const uint64_t approx = tuple.ApproxBytes();
  pane.approx_bytes += approx;
  buffered_bytes_ += approx;
  mutable_metrics().buffered_bytes = buffered_bytes_;
  const uint64_t hash = key.Hash();
  const uint32_t pos = pane.index.FindOrAdd(
      key, hash,
      [&pane](uint32_t p) -> const GroupKey& { return pane.groups[p].key; });
  if (pos == pane.groups.size()) {
    GroupState& fresh = pane.groups.emplace_back(std::move(key), hash);
    fresh.partials.reserve(slot_rep_.size());
    for (const size_t rep : slot_rep_) {
      fresh.partials.push_back(aggregates_[rep].make_partial());
    }
  }
  GroupState& gs = pane.groups[pos];
  // One accumulation per SLOT: columns sharing a partial_signature (e.g.
  // SUM and AVG of one attribute) pay the per-tuple work once.
  for (size_t s = 0; s < slot_rep_.size(); ++s) {
    USP_RETURN_NOT_OK(aggregates_[slot_rep_[s]].add(gs.partials[s].get(),
                                                    tuple));
  }
  gs.lineage.insert(gs.lineage.end(), tuple.lineage().begin(),
                    tuple.lineage().end());
  return common::Status::OK();
}

common::Status PanedGroupByAggregateOperator::EmitWindow(int64_t start,
                                                         Collector* out) {
  const int64_t end = start + spec_.size_us;
  // One pass over the window's panes merges their groups in first-seen
  // arrival order: panes are time-ordered and each keeps its own
  // first-seen order, so the first pane holding a key fixes its position.
  merge_index_.Clear();
  const auto pane_end = panes_.lower_bound(end);
  for (auto it = panes_.lower_bound(start); it != pane_end; ++it) {
    for (GroupState& gs : it->second.groups) {
      const size_t fresh = merge_index_.size();
      const uint32_t pos = merge_index_.FindOrAdd(
          gs.key, gs.hash, [this](uint32_t p) -> const GroupKey& {
            return merged_[p].front()->key;
          });
      if (pos == fresh) {
        if (merged_.size() == fresh) merged_.emplace_back();
        merged_[fresh].clear();
      }
      merged_[pos].push_back(&gs);
    }
  }
  for (size_t g = 0; g < merge_index_.size(); ++g) {
    const std::vector<GroupState*>& states = merged_[g];
    std::vector<Value> values;
    values.reserve(1 + aggregates_.size());
    values.emplace_back(states.front()->key.ToString());
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      partials_.clear();
      for (GroupState* gs : states) {
        partials_.push_back(gs->partials[slot_of_[a]].get());
      }
      auto v = aggregates_[a].finalize(partials_);
      if (!v.ok()) return v.status();
      values.push_back(v.MoveValueUnsafe());
    }
    Tuple result(end, std::move(values));
    size_t lineage_size = 0;
    for (const GroupState* gs : states) lineage_size += gs->lineage.size();
    std::vector<TupleId> lineage;
    lineage.reserve(lineage_size);
    for (const GroupState* gs : states) {
      lineage.insert(lineage.end(), gs->lineage.begin(), gs->lineage.end());
    }
    result.SetLineage(std::move(lineage));
    if (having_ && !having_(result)) continue;
    out->Emit(std::move(result));
  }
  if (grid_cache_probe_) {
    const auto [hits, misses] = grid_cache_probe_();
    mutable_metrics().grid_cache_hits = hits;
    mutable_metrics().grid_cache_misses = misses;
  }
  closed_start_ = start;
  return common::Status::OK();
}

void PanedGroupByAggregateOperator::EvictPanesServedBy(int64_t start) {
  // Evict panes whose last containing window (the largest slide multiple
  // <= pane start) has now been emitted.
  while (!panes_.empty() &&
         FloorToMultiple(panes_.begin()->first, spec_.slide_us) <= start) {
    const uint64_t bytes = panes_.begin()->second.approx_bytes;
    buffered_bytes_ -= bytes < buffered_bytes_ ? bytes : buffered_bytes_;
    panes_.erase(panes_.begin());
  }
  mutable_metrics().buffered_bytes = buffered_bytes_;
}

common::Status PanedGroupByAggregateOperator::OnWatermark(int64_t watermark,
                                                          Collector* out) {
  // The watermark bounds every future timestamp from below (up to the
  // late tuples dropped on arrival), so windows ending at or below it are
  // complete.
  while (!panes_.empty()) {
    const int64_t s = EarliestOpenWindowStart();
    if (s + spec_.size_us > watermark) break;
    USP_RETURN_NOT_OK(EmitWindow(s, out));
    EvictPanesServedBy(s);
  }
  // Windows that were empty when the watermark passed them are closed
  // too: a tuple that arrives for one of them now is late.
  if (watermark >= std::numeric_limits<int64_t>::min() + spec_.size_us) {
    closed_start_ = std::max(
        closed_start_,
        FloorToMultiple(watermark - spec_.size_us, spec_.slide_us));
  }
  return common::Status::OK();
}

common::Status PanedGroupByAggregateOperator::ProcessBatch(
    const TupleBatch& batch, Collector* /*out*/) {
  // Consecutive tuples falling into the same pane reuse the pane map node
  // (std::map nodes are stable, and nothing evicts panes mid-batch:
  // windows close only on watermarks).
  Pane* pane = nullptr;
  int64_t pane_start = 0;
  for (const Tuple& tuple : batch) {
    const int64_t ts = tuple.timestamp();
    if (IsLate(ts)) {
      ++mutable_metrics().late_dropped;
      continue;
    }
    const int64_t start = FloorToMultiple(ts, pane_us_);
    if (pane == nullptr || start != pane_start) {
      pane = &panes_[start];
      pane_start = start;
    }
    USP_RETURN_NOT_OK(AddToPane(*pane, tuple, key_fn_(tuple)));
  }
  return common::Status::OK();
}

common::Status PanedGroupByAggregateOperator::Finish(Collector* out) {
  // End-of-stream: flush every remaining window unconditionally (no
  // ts comparison, which would overflow near INT64_MAX).
  while (!panes_.empty()) {
    const int64_t s = EarliestOpenWindowStart();
    USP_RETURN_NOT_OK(EmitWindow(s, out));
    EvictPanesServedBy(s);
  }
  return common::Status::OK();
}

}  // namespace stream
}  // namespace usp
