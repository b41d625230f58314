// Join soak tests: watermarks are the only thing that expires join state.
// A silent input used to grow the peer buffer without bound until it
// spoke again; with watermarks flowing for the silent side the peer
// buffer must stay bounded by range + lateness worth of tuples, and none
// of it may change the matched-pair set. Input may arrive out of order
// within the lateness on both sides; a tuple below its own side's
// watermark is dropped and counted.

#include "stream/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
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
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(0, 1, 1.0)}), &out).ok());

  const size_t tuples_per_range = kRange / kSpacing;
  size_t max_right_buffer = 0;
  for (int64_t i = 1; i <= 100 * (kRange / kSpacing); ++i) {
    const int64_t ts = i * kSpacing;
    ASSERT_TRUE(join.PushRightBatch(TupleBatch({KV(ts, 1, 2.0)}), &out).ok());
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
  ASSERT_TRUE(unbounded.PushLeftBatch(TupleBatch({KV(0, 1, 1.0)}), &out).ok());
  for (int64_t i = 1; i <= 100 * (kRange / kSpacing); ++i) {
    ASSERT_TRUE(unbounded.PushRightBatch(
        TupleBatch({KV(i * kSpacing, 1, 2.0)}), &out).ok());
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
        EXPECT_TRUE(join.PushLeftBatch(
            TupleBatch({KV(ts, i % 7, 1.0)}), &out).ok());
        if (with_watermarks) {
          EXPECT_TRUE(join.AdvanceWatermark(true, ts).ok());
        }
      } else {
        EXPECT_TRUE(join.PushRightBatch(
            TupleBatch({KV(ts, i % 7, 2.0)}), &out).ok());
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
    EXPECT_TRUE(compiled->PushBatch(rfid, TupleBatch({KV(0, 1, 1.0)})).ok());
    uint64_t peak = 0;
    for (int64_t i = 1; i <= 50 * (kRange / kSpacing); ++i) {
      const int64_t ts = i * kSpacing;
      EXPECT_TRUE(compiled->PushBatch(
          temps, TupleBatch({KV(ts, 1, 2.0)})).ok());
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

/// A joined row without its fresh tuple id: timestamp and values.
std::string RenderPair(const Tuple& t) {
  std::string out = std::to_string(t.timestamp());
  for (size_t i = 0; i < t.num_values(); ++i) {
    out += "|" + t.value(i).ToString();
  }
  return out;
}

TEST(JoinSoakTest, LateTupleBelowOwnWatermarkIsDroppedAndCounted) {
  SlidingWindowJoin join("j", kRange, KeyMatch());
  VectorCollector out;
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(1000, 1, 1.0)}), &out).ok());
  ASSERT_TRUE(join.PushRightBatch(TupleBatch({KV(1200, 1, 2.0)}), &out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  const std::string first_pair = RenderPair(out.tuples()[0]);

  // The left side promises nothing below 2000; a left tuple at 1500
  // (in range of the buffered right tuple) is late.
  ASSERT_TRUE(join.AdvanceWatermark(/*from_left=*/true, 2000).ok());
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(1500, 1, 3.0)}), &out).ok());
  EXPECT_EQ(join.metrics().late_dropped, 1u);
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(RenderPair(out.tuples()[0]), first_pair);
  EXPECT_EQ(join.left_buffer_size(), 1u);

  // The dropped tuple is not buffered either: a later right tuple in
  // range of both meets only the on-time left tuple.
  ASSERT_TRUE(join.PushRightBatch(TupleBatch({KV(1400, 1, 4.0)}), &out).ok());
  ASSERT_EQ(out.tuples().size(), 2u);
  EXPECT_EQ(out.tuples()[1].value(1).AsDouble(), 1.0);
  EXPECT_EQ(join.metrics().late_dropped, 1u);
}

TEST(JoinSoakTest, DisorderWithinLatenessMatchesSortedFeed) {
  // Both sides arrive out of timestamp order, each tuple trailing its
  // side's newest one by at most kDisorder; at that lateness nothing is
  // late and the pair set equals the run over the same feed sorted.
  constexpr int64_t kDisorder = 1500;
  struct Pushed {
    bool left;
    Tuple tuple;
  };
  std::vector<Pushed> feed;
  common::Rng rng(17);
  int64_t left_ts = 0, right_ts = 0;
  for (int64_t i = 0; i < 400; ++i) {
    const bool left = rng.Bernoulli(0.5);
    int64_t& ts = left ? left_ts : right_ts;
    ts += static_cast<int64_t>(rng.UniformInt(2 * kSpacing + 1));
    const int64_t pulled =
        ts - static_cast<int64_t>(rng.UniformInt(kDisorder + 1));
    feed.push_back({left, KV(pulled, static_cast<int64_t>(i % 3),
                             static_cast<double>(i))});
  }
  std::vector<Pushed> sorted = feed;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Pushed& a, const Pushed& b) {
                     return a.tuple.timestamp() < b.tuple.timestamp();
                   });

  auto run = [](const std::vector<Pushed>& pushes, int64_t lateness,
                uint64_t* late) {
    auto q = query::Query::From("l", 2)
                 .Join(query::Query::From("r", 2), kRange, KeyMatch(), "j")
                 .Sink("out");
    query::PlannerOptions opts;
    opts.num_shards = 1;
    opts.watermark_lateness_us = lateness;
    auto compiled_or = q.Compile(opts);
    EXPECT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
    auto compiled = compiled_or.MoveValueUnsafe();
    const auto l = compiled->source("l");
    const auto r = compiled->source("r");
    for (const Pushed& p : pushes) {
      EXPECT_TRUE(compiled->PushBatch(
          p.left ? l : r, TupleBatch({p.tuple})).ok());
    }
    EXPECT_TRUE(compiled->Finish().ok());
    *late = 0;
    for (const NodeMetrics& m : compiled->MetricsSnapshot()) {
      *late += m.metrics.late_dropped;
    }
    std::vector<std::string> pairs;
    for (const Tuple& t : compiled->Result("out")) {
      pairs.push_back(RenderPair(t));
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  uint64_t late_disordered = 0, late_sorted = 0;
  const auto disordered = run(feed, kDisorder, &late_disordered);
  const auto in_order = run(sorted, 0, &late_sorted);
  EXPECT_EQ(late_disordered, 0u);
  EXPECT_EQ(late_sorted, 0u);
  ASSERT_GT(in_order.size(), 100u);
  EXPECT_EQ(disordered, in_order);
}

}  // namespace
}  // namespace stream
}  // namespace usp
