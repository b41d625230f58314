// Per-source periodic watermark generation, run by each ShardedExecutor
// ingest lane: the gate arithmetic — INT64_MIN sentinels, lateness
// subtraction, the "advanced a full period" test, monotone commit — has
// exactly one implementation to evolve (e.g. toward a wall-clock idle
// timer).

#ifndef USP_STREAM_WATERMARK_H_
#define USP_STREAM_WATERMARK_H_

#include <algorithm>
#include <cstdint>
#include <optional>

namespace usp {
namespace stream {

/// One source's generation state: max ingested timestamp + last emitted
/// watermark. Single-writer (the source's producer thread / lane).
struct SourceWatermarkClock {
  int64_t max_ts = INT64_MIN;
  int64_t last_watermark = INT64_MIN;

  /// Observe a batch's max timestamp; returns the watermark to emit when
  /// the candidate (max - lateness) has advanced at least `period_us`
  /// past the last committed one (always fires on the first batch), or
  /// nullopt. Does NOT record the emission — callers run the returned
  /// value through TryCommit on the actual send path, so explicit
  /// PushWatermark and periodic generation share one monotone gate.
  std::optional<int64_t> Advance(int64_t batch_max_ts, int64_t period_us,
                                 int64_t lateness_us) {
    if (period_us <= 0 || batch_max_ts == INT64_MIN) return std::nullopt;
    max_ts = std::max(max_ts, batch_max_ts);
    const int64_t candidate = max_ts - lateness_us;
    if (last_watermark == INT64_MIN ||
        candidate - last_watermark >= period_us) {
      return candidate;
    }
    return std::nullopt;
  }

  /// Monotone commit: records and returns true when `watermark` advances
  /// past the last committed one; false (emit nothing) otherwise, so
  /// re-sends and regressions are no-ops for every caller.
  bool TryCommit(int64_t watermark) {
    if (watermark <= last_watermark) return false;
    last_watermark = watermark;
    return true;
  }
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_WATERMARK_H_
