// Join soak tests: the silent-source regression the watermark subsystem
// fixes. A sliding-window join expires each side against the OTHER side's
// clock, so a silent input used to grow the peer buffer without bound
// until it spoke again. With watermarks flowing for the silent side the
// peer buffer must stay bounded by range + lateness worth of tuples, and
// none of it may change the matched-pair set for globally-ordered feeds
// (the Q2 shape).

#include "stream/join.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "query/planner.h"
#include "query/query.h"
#include "stream/batch.h"
#include "stream/exec_graph.h"

namespace usp {
namespace stream {
namespace {

Tuple KV(int64_t ts, int64_t key, double v) {
  Tuple t(ts, {Value(key), Value(v)});
  t.InitBaseLineage();
  return t;
}

SlidingWindowJoin::MatchFn KeyMatch() {
  return [](const Tuple& l, const Tuple& r) {
    if (l.value(0).AsInt() != r.value(0).AsInt()) {
      return std::optional<Tuple>();
    }
    return std::optional<Tuple>(ConcatJoinedTuple(l, r));
  };
}

constexpr int64_t kRange = 1000;
constexpr int64_t kSpacing = 100;  // right tuple every 100 us

TEST(JoinSoakTest, SilentSourceBufferBoundedByWatermarks) {
  // Left speaks once and goes silent for 100x the join range while right
  // keeps streaming. Idle-source watermarks track right's pace; after
  // each one the right buffer may hold at most range worth of tuples
  // (plus the one not-yet-expirable in-flight spacing step).
  SlidingWindowJoin join("j", kRange, KeyMatch());
  VectorCollector out;
  ASSERT_TRUE(join.PushLeft(KV(0, 1, 1.0), &out).ok());

  const size_t tuples_per_range = kRange / kSpacing;
  size_t max_right_buffer = 0;
  for (int64_t i = 1; i <= 100 * (kRange / kSpacing); ++i) {
    const int64_t ts = i * kSpacing;
    ASSERT_TRUE(join.PushRight(KV(ts, 1, 2.0), &out).ok());
    // The silent side's watermark keeps pace (a real deployment emits it
    // periodically from wall progress or the planner's idle hook).
    ASSERT_TRUE(join.AdvanceWatermark(/*from_left=*/true, ts).ok());
    max_right_buffer = std::max(max_right_buffer, join.right_buffer_size());
  }
  // Bound: tuples within [wm - range, now] => range/spacing + 1, plus one
  // for the tuple pushed before the watermark that covers it.
  EXPECT_LE(max_right_buffer, tuples_per_range + 2)
      << "peer buffer not bounded by watermark expiry";
  // Without the watermark the same soak keeps every right tuple.
  SlidingWindowJoin unbounded("u", kRange, KeyMatch());
  ASSERT_TRUE(unbounded.PushLeft(KV(0, 1, 1.0), &out).ok());
  for (int64_t i = 1; i <= 100 * (kRange / kSpacing); ++i) {
    ASSERT_TRUE(unbounded.PushRight(KV(i * kSpacing, 1, 2.0), &out).ok());
  }
  EXPECT_EQ(unbounded.right_buffer_size(), 100 * tuples_per_range)
      << "control run should grow unboundedly without watermarks";
}

TEST(JoinSoakTest, WatermarksDoNotChangeMatchedPairsOnOrderedFeeds) {
  // The Q2 shape with globally-ordered interleaved feeds: the matched
  // pair set with per-side watermarks must be identical to the run
  // without them (watermarks only ever expire provably-dead tuples).
  auto run = [](bool with_watermarks) {
    SlidingWindowJoin join("j", kRange, KeyMatch());
    VectorCollector out;
    for (int64_t i = 0; i < 500; ++i) {
      const int64_t ts = i * 37;
      if (i % 2 == 0) {
        EXPECT_TRUE(join.PushLeft(KV(ts, i % 7, 1.0), &out).ok());
        if (with_watermarks) {
          EXPECT_TRUE(join.AdvanceWatermark(true, ts).ok());
        }
      } else {
        EXPECT_TRUE(join.PushRight(KV(ts, i % 7, 2.0), &out).ok());
        if (with_watermarks) {
          EXPECT_TRUE(join.AdvanceWatermark(false, ts).ok());
        }
      }
    }
    EXPECT_TRUE(join.Close().ok());
    std::vector<std::string> rendered;
    rendered.reserve(out.tuples().size());
    for (const Tuple& t : out.tuples()) rendered.push_back(t.ToString());
    return rendered;
  };
  const auto with_wm = run(true);
  const auto without = run(false);
  ASSERT_FALSE(without.empty());
  // ToString includes fresh tuple ids; compare sizes + per-pair keys/ts
  // via a stable digest instead: strip the leading "#id" token.
  auto digest = [](const std::vector<std::string>& rows) {
    std::vector<std::string> out_rows;
    out_rows.reserve(rows.size());
    for (const std::string& r : rows) {
      out_rows.push_back(r.substr(r.find('@')));
    }
    return out_rows;
  };
  EXPECT_EQ(digest(with_wm), digest(without));
}

TEST(JoinSoakTest, CompiledQueryIdleSourceStaysBounded) {
  // End to end through the planner: Q2-shaped join, temp side streams,
  // RFID side silent after one tuple but announcing progress through
  // CompiledQuery::PushWatermark. The join's buffered_bytes gauge must
  // stay bounded (and far below the no-watermark control run).
  auto build = [] {
    auto rfid = query::Query::From("rfid", 2);
    auto temps = query::Query::From("temps", 2);
    return rfid.Join(temps, kRange, KeyMatch(), "q2").Sink("alerts");
  };
  auto soak = [&](bool send_watermarks) -> uint64_t {
    query::PlannerOptions opts;
    opts.num_shards = 1;
    auto compiled_or = build().Compile(opts);
    EXPECT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
    auto compiled = compiled_or.MoveValueUnsafe();
    const auto rfid = compiled->source("rfid");
    const auto temps = compiled->source("temps");
    EXPECT_TRUE(compiled->Push(rfid, KV(0, 1, 1.0)).ok());
    uint64_t peak = 0;
    for (int64_t i = 1; i <= 50 * (kRange / kSpacing); ++i) {
      const int64_t ts = i * kSpacing;
      EXPECT_TRUE(compiled->Push(temps, KV(ts, 1, 2.0)).ok());
      if (send_watermarks) {
        EXPECT_TRUE(compiled->PushWatermark(rfid, ts).ok());
      }
      for (const NodeMetrics& m : compiled->MetricsSnapshot()) {
        if (m.name == "q2") peak = std::max(peak, m.metrics.buffered_bytes);
      }
    }
    EXPECT_TRUE(compiled->Finish().ok());
    return peak;
  };
  const uint64_t bounded_peak = soak(true);
  const uint64_t unbounded_peak = soak(false);
  ASSERT_GT(bounded_peak, 0u);
  // 50x range of silent growth vs. ~1x range retained: over an order of
  // magnitude apart even with byte-estimate slack.
  EXPECT_GT(unbounded_peak, bounded_peak * 10)
      << "bounded=" << bounded_peak << " unbounded=" << unbounded_peak;
}

}  // namespace
}  // namespace stream
}  // namespace usp
