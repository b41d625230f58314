#include "stream/join.h"

#include <algorithm>

#include "stream/batch.h"

namespace usp {
namespace stream {

Tuple ConcatJoinedTuple(const Tuple& left, const Tuple& right) {
  std::vector<Value> values = left.values();
  for (const Value& v : right.values()) values.push_back(v);
  Tuple joined(std::max(left.timestamp(), right.timestamp()),
               std::move(values));
  std::vector<TupleId> lineage = left.lineage();
  lineage.insert(lineage.end(), right.lineage().begin(),
                 right.lineage().end());
  joined.SetLineage(std::move(lineage));
  return joined;
}

void SlidingWindowJoin::Expire() {
  // A buffered left tuple can only match future RIGHT arrivals, which
  // come in right-timestamp order: once the right clock passes
  // l.ts + range the tuple is provably dead, however far its own side has
  // run ahead. (Expiring by a single global clock would silently drop
  // matches when one input lags the other, which multi-lane ingest
  // permits.) The clock is max(data high-water, watermark): a silent
  // side's data clock freezes, but its watermark keeps advancing the
  // other buffer's expiry — the idle-source fix.
  const int64_t left_clock = LeftClock();
  const int64_t right_clock = RightClock();
  int64_t left_horizon = INT64_MIN;
  int64_t right_horizon = INT64_MIN;
  if (right_clock != INT64_MIN) {
    left_horizon = right_clock - range_us_;
  }
  if (left_clock != INT64_MIN) {
    right_horizon = left_clock - range_us_;
  }
  while (!left_.empty() && left_.front().timestamp() < left_horizon) {
    const uint64_t bytes = left_.front().ApproxBytes();
    buffered_bytes_ -= bytes < buffered_bytes_ ? bytes : buffered_bytes_;
    left_.pop_front();
  }
  while (!right_.empty() && right_.front().timestamp() < right_horizon) {
    const uint64_t bytes = right_.front().ApproxBytes();
    buffered_bytes_ -= bytes < buffered_bytes_ ? bytes : buffered_bytes_;
    right_.pop_front();
  }
  metrics_.buffered_bytes = buffered_bytes_;
}

void SlidingWindowJoin::ProbeAndBuffer(const Tuple& tuple, bool from_left,
                                       Collector* out) {
  if (from_left) {
    left_max_ts_ = std::max(left_max_ts_, tuple.timestamp());
  } else {
    right_max_ts_ = std::max(right_max_ts_, tuple.timestamp());
  }
  Expire();
  const std::deque<Tuple>& other = from_left ? right_ : left_;
  for (const Tuple& o : other) {
    // Expiration enforces the lower bound; the upper bound needs an
    // explicit check because the other side may have run ahead of this
    // tuple's window (cross-input skew). The buffer is in ascending
    // timestamp order, so everything after the first too-new tuple is
    // too new as well.
    if (o.timestamp() > tuple.timestamp() + range_us_) break;
    const Tuple& l = from_left ? tuple : o;
    const Tuple& r = from_left ? o : tuple;
    std::optional<Tuple> joined = match_(l, r);
    if (joined.has_value()) {
      ++metrics_.tuples_out;
      out->Emit(std::move(*joined));
    }
  }
  std::deque<Tuple>& side = from_left ? left_ : right_;
  side.push_back(tuple);
  // Charge the STORED copy (exact-sized), not the caller's tuple (which
  // may carry excess vector capacity): Expire() refunds by measuring the
  // stored copy, so charging the same object keeps the gauge drift-free.
  buffered_bytes_ += side.back().ApproxBytes();
  metrics_.buffered_bytes = buffered_bytes_;
}

common::Status SlidingWindowJoin::AdvanceWatermark(bool from_left,
                                                   int64_t watermark) {
  common::Stopwatch sw;
  if (from_left) {
    left_wm_ = std::max(left_wm_, watermark);
  } else {
    right_wm_ = std::max(right_wm_, watermark);
  }
  // The join's own progress is the min of its input clocks (fan-in rule);
  // recorded so the low-watermark surface covers joins too.
  const int64_t left_clock = LeftClock();
  const int64_t right_clock = RightClock();
  metrics_.low_watermark =
      left_clock < right_clock ? left_clock : right_clock;
  Expire();
  metrics_.processing_seconds += sw.ElapsedSeconds();
  return common::Status::OK();
}

common::Status SlidingWindowJoin::PushImpl(const Tuple& tuple, bool from_left,
                                           Collector* out) {
  ++metrics_.tuples_in;
  common::Stopwatch sw;
  ProbeAndBuffer(tuple, from_left, out);
  metrics_.processing_seconds += sw.ElapsedSeconds();
  return common::Status::OK();
}

common::Status SlidingWindowJoin::PushBatchImpl(const TupleBatch& batch,
                                                bool from_left,
                                                Collector* out) {
  metrics_.tuples_in += batch.size();
  ++metrics_.batches_in;
  common::Stopwatch sw;
  for (const Tuple& t : batch) ProbeAndBuffer(t, from_left, out);
  metrics_.processing_seconds += sw.ElapsedSeconds();
  return common::Status::OK();
}

common::Status SlidingWindowJoin::PushLeft(const Tuple& tuple,
                                           Collector* out) {
  return PushImpl(tuple, /*from_left=*/true, out);
}

common::Status SlidingWindowJoin::PushRight(const Tuple& tuple,
                                            Collector* out) {
  return PushImpl(tuple, /*from_left=*/false, out);
}

common::Status SlidingWindowJoin::PushLeftBatch(const TupleBatch& batch,
                                                Collector* out) {
  return PushBatchImpl(batch, /*from_left=*/true, out);
}

common::Status SlidingWindowJoin::PushRightBatch(const TupleBatch& batch,
                                                 Collector* out) {
  return PushBatchImpl(batch, /*from_left=*/false, out);
}

common::Status SlidingWindowJoin::Close() {
  left_.clear();
  right_.clear();
  buffered_bytes_ = 0;
  metrics_.buffered_bytes = 0;
  return common::Status::OK();
}

}  // namespace stream
}  // namespace usp
