#include "stream/window.h"

#include "stream/batch.h"

namespace usp {
namespace stream {

common::Status WindowedOperator::EmitEarliest(Collector* out) {
  const auto it = open_.begin();
  const int64_t start = it->first;
  const int64_t end = start + spec_.size_us;
  // Move the buffer out before the callback so re-entrant emissions
  // cannot invalidate the iterator.
  std::vector<Tuple> buf = std::move(it->second);
  open_.erase(it);
  for (const Tuple& t : buf) {
    const uint64_t bytes = t.ApproxBytes();
    buffered_bytes_ -= bytes < buffered_bytes_ ? bytes : buffered_bytes_;
  }
  mutable_metrics().buffered_bytes = buffered_bytes_;
  return EmitWindow(start, end, buf, out);
}

common::Status WindowedOperator::CloseWindowsBefore(int64_t ts,
                                                    Collector* out) {
  while (!open_.empty()) {
    if (open_.begin()->first + spec_.size_us > ts) break;
    USP_RETURN_NOT_OK(EmitEarliest(out));
  }
  return common::Status::OK();
}

void WindowedOperator::AppendRun(int64_t window_start, const Tuple* tuples,
                                 size_t count, size_t batch_offset) {
  (void)batch_offset;
  std::vector<Tuple>& buf = open_[window_start];
  buf.insert(buf.end(), tuples, tuples + count);
  if (!run_bytes_valid_) {
    // Measure the STORED copies, not the source tuples: the source may
    // carry excess vector capacity the exact-sized copies do not, and
    // EmitEarliest refunds by measuring the stored copies — charging the
    // same objects keeps the gauge drift-free. Copies of one source
    // tuple are layout-identical across windows, so one run sum serves
    // every overlapping window.
    run_bytes_ = 0;
    for (size_t i = buf.size() - count; i < buf.size(); ++i) {
      run_bytes_ += buf[i].ApproxBytes();
    }
    run_bytes_valid_ = true;
  }
  buffered_bytes_ += run_bytes_;
  mutable_metrics().buffered_bytes = buffered_bytes_;
}

common::Status WindowedOperator::OnWatermark(int64_t watermark,
                                             Collector* out) {
  // The watermark promises no future tuple has ts < watermark, so every
  // window ending at or below it is complete — the same closure rule the
  // arrival path applies with the arriving tuple's timestamp, which keeps
  // the two paths' outputs identical on ordered input.
  return CloseWindowsBefore(watermark, out);
}

common::Status WindowedOperator::ProcessBatch(const TupleBatch& batch,
                                              Collector* out) {
  const size_t n = batch.size();
  size_t i = 0;
  while (i < n) {
    const int64_t ts = batch[i].timestamp();
    USP_RETURN_NOT_OK(CloseWindowsBefore(ts, out));
    const int64_t first = spec_.FirstAssignedStart(ts);
    const int64_t last = spec_.LastAssignedStart(ts);
    // Extend the run while consecutive tuples land in the same window
    // range. Tuples are timestamp-ordered, so the range is non-decreasing;
    // equality of the (first, last) pair is the run condition. Deferring
    // the closure check to the next run is safe: a window whose end falls
    // inside the run cannot contain any run tuple (its start would be
    // < first), appends emit nothing, and closures stay in ascending
    // window order.
    size_t j = i + 1;
    while (j < n && spec_.LastAssignedStart(batch[j].timestamp()) == last &&
           spec_.FirstAssignedStart(batch[j].timestamp()) == first) {
      ++j;
    }
    run_bytes_valid_ = false;  // same run across the start loop below
    for (int64_t start = last; start >= first; start -= spec_.slide_us) {
      AppendRun(start, &batch.tuples()[i], j - i, i);
    }
    i = j;
  }
  return common::Status::OK();
}

common::Status WindowedOperator::Finish(Collector* out) {
  while (!open_.empty()) {
    USP_RETURN_NOT_OK(EmitEarliest(out));
  }
  return common::Status::OK();
}

common::Status WindowCountOperator::EmitWindow(int64_t window_start,
                                               int64_t window_end,
                                               const std::vector<Tuple>& tuples,
                                               Collector* out) {
  (void)window_start;
  Tuple result(window_end,
               {Value(static_cast<int64_t>(tuples.size()))});
  std::vector<TupleId> lineage;
  for (const Tuple& t : tuples) {
    lineage.insert(lineage.end(), t.lineage().begin(), t.lineage().end());
  }
  result.SetLineage(std::move(lineage));
  out->Emit(std::move(result));
  return common::Status::OK();
}

}  // namespace stream
}  // namespace usp
