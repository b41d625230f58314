// Per-source watermark generation, run by each ShardedExecutor ingest
// lane: the clock arithmetic — INT64_MIN sentinels, lateness subtraction,
// monotone commit, the broadcast period gate — has exactly one
// implementation to evolve (e.g. toward a wall-clock idle timer).

#ifndef USP_STREAM_WATERMARK_H_
#define USP_STREAM_WATERMARK_H_

#include <algorithm>
#include <cstdint>

namespace usp {
namespace stream {

/// One source's generation state. Single-writer (the source's lane).
struct SourceWatermarkClock {
  /// Max ingested timestamp.
  int64_t max_ts = INT64_MIN;
  /// Last committed watermark, whether carried on data, broadcast, or
  /// pushed explicitly; monotone.
  int64_t last_watermark = INT64_MIN;
  /// Last watermark broadcast to every shard; the period gate measures
  /// from here, not from values carried on data (which advance on every
  /// slice and would otherwise starve the broadcast).
  int64_t last_broadcast = INT64_MIN;

  /// Observe an ingested slice's max timestamp. Returns the new watermark
  /// (max ingested ts - lateness), committed, when it advanced; INT64_MIN
  /// otherwise.
  int64_t Observe(int64_t slice_max_ts, int64_t lateness_us) {
    if (slice_max_ts == INT64_MIN) return INT64_MIN;
    max_ts = std::max(max_ts, slice_max_ts);
    const int64_t candidate = max_ts - lateness_us;
    return TryCommit(candidate) ? candidate : INT64_MIN;
  }

  /// Periodic broadcast gate: true (and recorded) when the committed
  /// watermark is at least `period_us` past the last broadcast, or has
  /// never been broadcast. Never fires for period_us <= 0.
  bool BroadcastDue(int64_t period_us) {
    if (period_us <= 0 || last_watermark == INT64_MIN) return false;
    if (last_broadcast != INT64_MIN &&
        last_watermark - last_broadcast < period_us) {
      return false;
    }
    last_broadcast = last_watermark;
    return true;
  }

  /// Explicit progress: commits `watermark` and records it as broadcast.
  /// False (send nothing) when it does not advance the clock, so re-sends
  /// and regressions are no-ops.
  bool CommitBroadcast(int64_t watermark) {
    if (!TryCommit(watermark)) return false;
    last_broadcast = watermark;
    return true;
  }

 private:
  bool TryCommit(int64_t watermark) {
    if (watermark <= last_watermark) return false;
    last_watermark = watermark;
    return true;
  }
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_WATERMARK_H_
