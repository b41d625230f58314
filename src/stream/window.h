// Time-based windowing. Q1 uses `[Range 5 seconds]` tumbling windows; the
// radar averaging operator tumbles over non-overlapping pulse segments;
// joins use sliding ranges. WindowSpec is shared by every windowed
// operator. The WindowedOperator family here (and GroupByAggregateOperator
// built on it) closes a window [s, e) when a tuple with timestamp >= e
// arrives (per-stream timestamp order is the DSMS contract), on a
// watermark >= e, or at end-of-stream. No compiled plan uses these
// operators: they are the naive reference that the differential tests and
// benches compare PanedGroupByAggregateOperator (stream/pane_window.h),
// which closes windows on watermarks only, against.

#ifndef USP_STREAM_WINDOW_H_
#define USP_STREAM_WINDOW_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/math_util.h"
#include "common/status.h"
#include "stream/operator.h"

namespace usp {
namespace stream {

/// Window shape: tumbling (slide == size), sliding (slide < size), or
/// sampling with gaps (slide > size — a timestamp between two windows is
/// assigned to none; the assignment arithmetic handles all three).
struct WindowSpec {
  int64_t size_us;
  int64_t slide_us;

  static WindowSpec Tumbling(int64_t size_us) { return {size_us, size_us}; }
  static WindowSpec Sliding(int64_t size_us, int64_t slide_us) {
    return {size_us, slide_us};
  }

  /// Latest window start containing `ts` (floor semantics, robust for
  /// negative timestamps).
  int64_t LastAssignedStart(int64_t ts) const {
    return common::FloorToMultiple(ts, slide_us);
  }

  /// Earliest window start containing `ts`: the smallest multiple of
  /// slide_us strictly greater than ts - size_us.
  int64_t FirstAssignedStart(int64_t ts) const {
    return common::FloorToMultiple(ts - size_us, slide_us) + slide_us;
  }

  /// Invoke `fn(start)` for every window start containing `ts`, in
  /// descending start order. Allocation-free.
  template <typename Fn>
  void ForEachAssignedStart(int64_t ts, Fn&& fn) const {
    const int64_t first = FirstAssignedStart(ts);
    for (int64_t start = LastAssignedStart(ts); start >= first;
         start -= slide_us) {
      fn(start);
    }
  }
};

/// \brief Base for operators that buffer tuples per time window and emit
/// when windows close.
///
/// Subclasses implement EmitWindow() to produce results from a closed
/// window's tuples (in arrival order).
class WindowedOperator : public Operator {
 public:
  WindowedOperator(std::string name, WindowSpec spec)
      : Operator(std::move(name)), spec_(spec) {}

 protected:
  /// Window closure is checked per run of consecutive tuples sharing the
  /// same window range, window starts are computed arithmetically, and
  /// each run is appended en bloc. Input must be in timestamp order.
  common::Status ProcessBatch(const TupleBatch& batch,
                              Collector* out) override;
  /// Closes every window with end <= watermark (the watermark promises no
  /// future tuple below it, so those windows are complete).
  common::Status OnWatermark(int64_t watermark, Collector* out) override;
  common::Status Finish(Collector* out) override;

  /// Called once per closed window with its buffered tuples.
  virtual common::Status EmitWindow(int64_t window_start, int64_t window_end,
                                    const std::vector<Tuple>& tuples,
                                    Collector* out) = 0;

  /// Append hook: `tuples[0..count)`, a run of consecutive batch tuples,
  /// joins the window starting at `window_start`. `batch_offset` is the
  /// run's index into the batch being processed. Subclasses that maintain
  /// per-window side state (e.g. cached group keys) override this and must
  /// call the base implementation.
  virtual void AppendRun(int64_t window_start, const Tuple* tuples,
                         size_t count, size_t batch_offset);

  const WindowSpec& spec() const { return spec_; }

 private:
  common::Status CloseWindowsBefore(int64_t ts, Collector* out);
  /// Emit + erase the earliest open window (shared by close paths).
  common::Status EmitEarliest(Collector* out);

  WindowSpec spec_;
  /// Incremental Tuple::ApproxBytes sum over every buffered copy (a tuple
  /// in k overlapping windows is charged k times — that is the real
  /// footprint); mirrored into OperatorMetrics::buffered_bytes.
  uint64_t buffered_bytes_ = 0;
  /// One-run byte-sum memo: AppendRun is invoked once per overlapping
  /// window with the SAME tuple run, so the sum is computed once per run
  /// (invalidated by ProcessBatch before each new run), not once
  /// per (run, window).
  uint64_t run_bytes_ = 0;
  bool run_bytes_valid_ = false;
  std::map<int64_t, std::vector<Tuple>> open_;  // window start -> buffer
};

/// Windowed count: emits one tuple [count] per window; mostly a test probe
/// and the simplest WindowedOperator example.
class WindowCountOperator final : public WindowedOperator {
 public:
  WindowCountOperator(std::string name, WindowSpec spec)
      : WindowedOperator(std::move(name), spec) {}

 protected:
  common::Status EmitWindow(int64_t window_start, int64_t window_end,
                            const std::vector<Tuple>& tuples,
                            Collector* out) override;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_WINDOW_H_
