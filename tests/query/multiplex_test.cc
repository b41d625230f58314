// Standing-query multiplexing equivalence: a MultiplexedQuery serving N
// subscriptions on ONE shared plan must produce, per subscription, exactly
// the rows N independently compiled CompiledQuery plans produce — bitwise
// for tumbling templates (both paths use the exact per-window kernels),
// within 1e-9 for sliding templates — across 64 seeded random subscription
// sets and under 1, 2, and 4 shards. Plus the shared-state guarantees the
// sharing argument rests on: the pane buffer gauge must not scale with the
// subscription count, SUM+AVG of one attribute must share an accumulator
// slot, and unsubscribe must release shared dispatch state only at
// refcount zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/planner.h"
#include "query/query.h"
#include "query/subscription.h"
#include "stats/gaussian.h"
#include "stream/tuple.h"
#include "stream/value.h"
#include "uncertain/aggregates.h"
#include "uncertain/sum_strategies.h"

namespace usp {
namespace query {
namespace {

using stream::Tuple;
using stream::TupleBatch;
using stream::Value;
using stream::WindowSpec;

// ---- randomised template + subscription-set generator -------------------

struct GenSub {
  stream::SubscriptionScope::Kind kind =
      stream::SubscriptionScope::Kind::kAll;
  int64_t key = 0;      // kExact
  int64_t lo = 0, hi = 0;  // kIntRange
  bool has_condition = false;
  size_t agg_column = 0;
  double threshold = 0.0;
  double min_confidence = 0.5;
};

struct GenCase {
  bool sliding = false;
  WindowSpec window = WindowSpec::Tumbling(5'000);
  std::vector<AggregateDecl> aggs;
  int64_t num_keys = 8;
  std::vector<GenSub> subs;
  std::vector<TupleBatch> input;
};

GenCase GenerateCase(uint64_t seed) {
  common::Rng rng(seed);
  GenCase c;
  c.sliding = rng.UniformInt(2) == 1;
  c.window = c.sliding ? WindowSpec::Sliding(6'000, 2'000)
                       : WindowSpec::Tumbling(5'000);
  c.num_keys = 3 + static_cast<int64_t>(rng.UniformInt(9));

  // Column 0 is always SUM(temp); AVG shares its partial slot on the pane
  // path, COUNT and MAX stress distinct partial kinds.
  c.aggs.push_back({AggregateKind::kSum, "total", 1,
                    uncertain::SumStrategyKind::kClt, 0});
  if (rng.UniformInt(2) == 1) {
    c.aggs.push_back({AggregateKind::kAvg, "mean", 1,
                      uncertain::SumStrategyKind::kClt, 0});
  }
  if (rng.UniformInt(2) == 1) {
    c.aggs.push_back({AggregateKind::kCount, "n", 0,
                      uncertain::SumStrategyKind::kClt, 0});
  }
  if (rng.UniformInt(2) == 1) {
    c.aggs.push_back({AggregateKind::kMax, "peak", 1,
                      uncertain::SumStrategyKind::kClt, 64});
  }

  const size_t num_subs = 5 + rng.UniformInt(8);
  const double tuples_per_group_window =
      10.0 / static_cast<double>(c.num_keys) *
      static_cast<double>(c.window.size_us) / 500.0 / 10.0;
  for (size_t i = 0; i < num_subs; ++i) {
    GenSub s;
    const uint64_t kind = rng.UniformInt(3);
    if (kind == 0) {
      s.kind = stream::SubscriptionScope::Kind::kExact;
      s.key = static_cast<int64_t>(rng.UniformInt(c.num_keys + 2));
    } else if (kind == 1) {
      s.kind = stream::SubscriptionScope::Kind::kIntRange;
      s.lo = static_cast<int64_t>(rng.UniformInt(c.num_keys));
      s.hi = s.lo + static_cast<int64_t>(rng.UniformInt(4));
    } else {
      s.kind = stream::SubscriptionScope::Kind::kAll;
    }
    if (rng.Uniform() < 0.7) {
      s.has_condition = true;
      s.agg_column = rng.UniformInt(c.aggs.size());
      s.min_confidence = rng.Uniform(0.3, 0.95);
      switch (c.aggs[s.agg_column].kind) {
        case AggregateKind::kSum:
          s.threshold = rng.Uniform(0.3, 1.7) * 50.0 * tuples_per_group_window;
          break;
        case AggregateKind::kAvg:
          s.threshold = rng.Uniform(20.0, 80.0);
          break;
        case AggregateKind::kCount:
          s.threshold = rng.Uniform(0.0, 2.0) * tuples_per_group_window;
          break;
        case AggregateKind::kMax:
          s.threshold = rng.Uniform(40.0, 110.0);
          break;
        default:
          s.threshold = rng.Uniform(0.0, 100.0);
          break;
      }
    }
    c.subs.push_back(s);
  }

  // 240 tuples, one per 500 us: ~24 tumbling / ~58 sliding windows.
  TupleBatch batch;
  for (int64_t i = 0; i < 240; ++i) {
    const int64_t ts = i * 500;
    const int64_t key = static_cast<int64_t>(rng.UniformInt(c.num_keys));
    const double mean = rng.Uniform(10.0, 100.0);
    const double sd = rng.Uniform(0.5, 3.0);
    Tuple t(ts, {Value(key), Value(stats::DistributionPtr(
                                 std::make_shared<stats::Gaussian>(mean, sd)))});
    t.InitBaseLineage();
    batch.Append(std::move(t));
    if (batch.size() == 32) {
      c.input.push_back(std::move(batch));
      batch = TupleBatch();
    }
  }
  if (!batch.empty()) c.input.push_back(std::move(batch));
  return c;
}

Query TemplateQuery(const GenCase& c) {
  Query q = Query::From("feed", 2).Window(c.window).GroupBy(0);
  for (const AggregateDecl& a : c.aggs) q = q.Aggregate(a);
  return q.Sink("out");
}

Subscription ToSubscription(const GenSub& s) {
  Subscription sub = Subscription::AllGroups();
  switch (s.kind) {
    case stream::SubscriptionScope::Kind::kExact:
      sub = Subscription::KeyEquals(Value(s.key));
      break;
    case stream::SubscriptionScope::Kind::kIntRange:
      sub = Subscription::KeyInRange(s.lo, s.hi);
      break;
    case stream::SubscriptionScope::Kind::kAll:
      break;
  }
  if (s.has_condition) {
    sub.Where(s.agg_column, s.threshold, s.min_confidence);
  }
  return sub;
}

/// The independent-query baseline for one subscription: the template plus
/// a pre-window key filter for the scope and a per-query HAVING for the
/// condition — what each subscriber would run without multiplexing.
Query BaselineQuery(const GenCase& c, const GenSub& s) {
  Query q = Query::From("feed", 2);
  switch (s.kind) {
    case stream::SubscriptionScope::Kind::kExact: {
      const int64_t k = s.key;
      q = q.Filter("scope",
                   [k](const Tuple& t) { return t.value(0).AsInt() == k; },
                   {0});
      break;
    }
    case stream::SubscriptionScope::Kind::kIntRange: {
      const int64_t lo = s.lo, hi = s.hi;
      q = q.Filter("scope",
                   [lo, hi](const Tuple& t) {
                     const int64_t k = t.value(0).AsInt();
                     return k >= lo && k <= hi;
                   },
                   {0});
      break;
    }
    case stream::SubscriptionScope::Kind::kAll:
      break;
  }
  q = q.Window(c.window).GroupBy(0);
  for (const AggregateDecl& a : c.aggs) q = q.Aggregate(a);
  if (s.has_condition) {
    q = q.Having(uncertain::MakeHavingProbGreater(
        1 + s.agg_column, s.threshold, s.min_confidence));
  }
  return q.Sink("out");
}

// ---- result comparison --------------------------------------------------

std::string RenderValue(const Value& v) {
  char buf[96];
  switch (v.kind()) {
    case stream::ValueKind::kString:
      return v.AsString();
    case stream::ValueKind::kInt:
      return std::to_string(v.AsInt());
    case stream::ValueKind::kDouble:
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
      return buf;
    case stream::ValueKind::kDistribution: {
      const auto& d = *v.AsDistribution();
      std::snprintf(buf, sizeof(buf), "d(%.17g,%.17g)", d.Mean(),
                    d.Variance());
      return buf;
    }
    case stream::ValueKind::kNull:
      return "null";
  }
  return "?";
}

/// Canonical sorted row renderings, with `tol` applied by quantising
/// numerics — tol 0 renders exactly (bitwise comparison), tol > 0 rounds
/// every numeric to its nearest tol grid point before rendering.
std::vector<std::string> CanonicalRows(const std::vector<Tuple>& rows,
                                       double tol) {
  auto quantise = [tol](double x) {
    return tol > 0.0 ? std::round(x / tol) * tol : x;
  };
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) {
    std::string r = std::to_string(t.timestamp());
    for (size_t i = 0; i < t.num_values(); ++i) {
      const Value& v = t.value(i);
      char buf[96];
      if (v.kind() == stream::ValueKind::kDouble) {
        std::snprintf(buf, sizeof(buf), "%.17g", quantise(v.AsDouble()));
        r += std::string("|") + buf;
      } else if (v.kind() == stream::ValueKind::kDistribution) {
        const auto& d = *v.AsDistribution();
        std::snprintf(buf, sizeof(buf), "d(%.17g,%.17g)", quantise(d.Mean()),
                      quantise(d.Variance()));
        r += std::string("|") + buf;
      } else {
        r += "|" + RenderValue(v);
      }
    }
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs a compiled plan over the case input; returns the sink rows.
template <typename Q>
std::vector<Tuple> RunPlan(Q* q, const GenCase& c) {
  const auto src = q->source("feed");
  for (const TupleBatch& b : c.input) {
    EXPECT_TRUE(q->PushBatch(src, b).ok());
  }
  EXPECT_TRUE(q->Finish().ok());
  std::vector<Tuple> rows;
  for (const Tuple& t : q->Result("out")) rows.push_back(t);
  return rows;
}

/// Splits tagged multiplexed rows [key, aggs.., id] by trailing id,
/// dropping the tag so rows are baseline-comparable.
std::map<uint64_t, std::vector<Tuple>> SplitById(
    const std::vector<Tuple>& tagged) {
  std::map<uint64_t, std::vector<Tuple>> by_id;
  for (const Tuple& t : tagged) {
    const size_t n = t.num_values();
    const uint64_t id = static_cast<uint64_t>(t.value(n - 1).AsInt());
    Tuple row(t.timestamp(), {});
    for (size_t i = 0; i + 1 < n; ++i) row.AppendValue(t.value(i));
    by_id[id].push_back(std::move(row));
  }
  return by_id;
}

TEST(MultiplexDifferentialTest, MatchesIndependentQueriesAcross64Seeds) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const GenCase c = GenerateCase(1000 + seed);
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 (c.sliding ? " sliding" : " tumbling"));

    // Baseline: one independently compiled plan per subscription.
    std::vector<std::vector<std::string>> baseline;
    for (const GenSub& s : c.subs) {
      PlannerOptions opts;
      opts.num_shards = 1;
      auto compiled = BaselineQuery(c, s).Compile(opts);
      ASSERT_TRUE(compiled.ok()) << compiled.status().message();
      baseline.push_back(CanonicalRows(RunPlan(compiled.value().get(), c),
                                       c.sliding ? 1e-9 : 0.0));
    }

    // Multiplexed: every shard count must reproduce the baseline.
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE("shards " + std::to_string(shards));
      auto subs = std::make_shared<SubscriptionSet>();
      std::vector<SubscriptionSet::Id> ids;
      for (const GenSub& s : c.subs) {
        ids.push_back(subs->Subscribe(ToSubscription(s)));
      }
      PlannerOptions opts;
      opts.num_shards = shards;
      auto mq = TemplateQuery(c).CompileMultiplexed(subs, opts);
      ASSERT_TRUE(mq.ok()) << mq.status().message();
      EXPECT_TRUE(mq.value()->summary().multiplexed);
      auto by_id = SplitById(RunPlan(mq.value().get(), c));
      for (size_t i = 0; i < c.subs.size(); ++i) {
        const auto it = by_id.find(ids[i]);
        const std::vector<Tuple> empty;
        const auto got = CanonicalRows(it == by_id.end() ? empty : it->second,
                                       c.sliding ? 1e-9 : 0.0);
        EXPECT_EQ(got, baseline[i]) << "subscription " << i;
      }
    }
  }
}

// ---- shared-state guarantees --------------------------------------------

GenCase FixedSlidingCase() {
  GenCase c = GenerateCase(7);
  c.sliding = true;
  c.window = WindowSpec::Sliding(6'000, 2'000);
  return c;
}

TEST(MultiplexSharedStateTest, PaneBufferGaugeDoesNotScaleWithSubscriptions) {
  // One subscriber vs. two hundred: the pane buffer is SHARED, so the
  // aggregate's buffered_bytes gauge must be identical mid-stream (same
  // data resident once, not once per subscription).
  const GenCase c = FixedSlidingCase();
  auto gauge_with = [&](size_t num_subs) -> uint64_t {
    auto subs = std::make_shared<SubscriptionSet>();
    for (size_t i = 0; i < num_subs; ++i) {
      subs->Subscribe(ToSubscription(c.subs[i % c.subs.size()]));
    }
    PlannerOptions opts;
    opts.num_shards = 1;
    auto mq = TemplateQuery(c).CompileMultiplexed(subs, opts);
    EXPECT_TRUE(mq.ok()) << mq.status().message();
    const auto src = mq.value()->source("feed");
    for (const TupleBatch& b : c.input) {
      EXPECT_TRUE(mq.value()->PushBatch(src, b).ok());
    }
    // Mid-stream (no Finish): open panes are resident.
    uint64_t gauge = 0;
    for (const auto& nm : mq.value()->MetricsSnapshot()) {
      gauge += nm.metrics.buffered_bytes;
    }
    EXPECT_TRUE(mq.value()->Finish().ok());
    return gauge;
  };
  const uint64_t one = gauge_with(1);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(gauge_with(200), one);
}

TEST(MultiplexSharedStateTest, SumAndAvgShareOnePartialSlot) {
  GenCase c = FixedSlidingCase();
  c.aggs = {{AggregateKind::kSum, "total", 1,
             uncertain::SumStrategyKind::kClt, 0},
            {AggregateKind::kAvg, "mean", 1,
             uncertain::SumStrategyKind::kClt, 0},
            {AggregateKind::kCount, "n", 0,
             uncertain::SumStrategyKind::kClt, 0}};
  auto subs = std::make_shared<SubscriptionSet>();
  subs->Subscribe(Subscription::AllGroups());
  PlannerOptions opts;
  opts.num_shards = 1;
  auto mq = TemplateQuery(c).CompileMultiplexed(subs, opts);
  ASSERT_TRUE(mq.ok()) << mq.status().message();
  // 3 output columns, 2 distinct partials: SUM and AVG of attr 1 share.
  EXPECT_EQ(mq.value()->summary().multiplex_agg_columns, 3u);
  EXPECT_EQ(mq.value()->summary().multiplex_partial_slots, 2u);
}

TEST(MultiplexSharedStateTest, UnsubscribeReleasesSharedStateAtRefcountZero) {
  const GenCase c = FixedSlidingCase();
  auto subs = std::make_shared<SubscriptionSet>();
  const auto a = subs->Subscribe(Subscription::KeyEquals(Value(int64_t{3})));
  const auto b = subs->Subscribe(
      Subscription::KeyEquals(Value(int64_t{3})).Where(0, 100.0, 0.9));
  PlannerOptions opts;
  opts.num_shards = 2;
  auto mq = TemplateQuery(c).CompileMultiplexed(subs, opts);
  ASSERT_TRUE(mq.ok()) << mq.status().message();
  EXPECT_EQ(mq.value()->subscriptions().IndexStats().exact_buckets, 1u);
  EXPECT_TRUE(mq.value()->subscriptions().Unsubscribe(a));
  EXPECT_EQ(mq.value()->subscriptions().IndexStats().exact_buckets, 1u);
  EXPECT_TRUE(mq.value()->subscriptions().Unsubscribe(b));
  EXPECT_EQ(mq.value()->subscriptions().IndexStats().exact_buckets, 0u);
  EXPECT_EQ(mq.value()->subscriptions().size(), 0u);
  EXPECT_TRUE(mq.value()->Finish().ok());
}

TEST(MultiplexSharedStateTest, MidStreamUnsubscribeStopsFutureWindowsOnly) {
  const GenCase c = FixedSlidingCase();
  auto subs = std::make_shared<SubscriptionSet>();
  const auto keep = subs->Subscribe(Subscription::AllGroups());
  const auto drop = subs->Subscribe(Subscription::AllGroups());
  PlannerOptions opts;
  opts.num_shards = 1;  // inline: each push closes its windows in order
  auto mq = TemplateQuery(c).CompileMultiplexed(subs, opts);
  ASSERT_TRUE(mq.ok()) << mq.status().message();
  const auto src = mq.value()->source("feed");
  for (size_t i = 0; i < c.input.size(); ++i) {
    if (i == c.input.size() / 2) {
      ASSERT_TRUE(mq.value()->subscriptions().Unsubscribe(drop));
    }
    ASSERT_TRUE(mq.value()->PushBatch(src, c.input[i]).ok());
  }
  ASSERT_TRUE(mq.value()->Finish().ok());
  std::vector<Tuple> rows;
  for (const Tuple& t : mq.value()->Result("out")) rows.push_back(t);
  auto by_id = SplitById(rows);
  // The surviving subscription saw every window; the dropped one saw a
  // strict prefix (it existed for at least the first windows) and nothing
  // after its last row.
  ASSERT_FALSE(by_id[keep].empty());
  ASSERT_FALSE(by_id[drop].empty());
  EXPECT_LT(by_id[drop].size(), by_id[keep].size());
  const auto kept = CanonicalRows(by_id[keep], 0.0);
  for (const std::string& row : CanonicalRows(by_id[drop], 0.0)) {
    EXPECT_TRUE(std::binary_search(kept.begin(), kept.end(), row))
        << "dropped subscription produced a row the surviving one did not: "
        << row;
  }
}

TEST(MultiplexSharedStateTest, OnMatchCallbacksFireOncePerTaggedRow) {
  const GenCase c = FixedSlidingCase();
  auto subs = std::make_shared<SubscriptionSet>();
  auto count = std::make_shared<std::atomic<size_t>>(0);
  const auto id = subs->Subscribe(
      Subscription::KeyInRange(0, 4).OnMatch(
          [count](const Tuple&) { count->fetch_add(1); }));
  PlannerOptions opts;
  opts.num_shards = 2;
  auto mq = TemplateQuery(c).CompileMultiplexed(subs, opts);
  ASSERT_TRUE(mq.ok()) << mq.status().message();
  auto by_id = SplitById(RunPlan(mq.value().get(), c));
  ASSERT_FALSE(by_id[id].empty());
  EXPECT_EQ(count->load(), by_id[id].size());
}

// ---- template shape validation ------------------------------------------

TEST(MultiplexCompileTest, RejectsInvalidTemplatesAndReuse) {
  auto subs = std::make_shared<SubscriptionSet>();
  // No group key: nothing to dispatch subscriptions on.
  auto ungrouped = Query::From("feed", 2)
                       .Window(WindowSpec::Tumbling(5'000))
                       .Sum("total", 1, uncertain::SumStrategyKind::kClt)
                       .Sink("out")
                       .CompileMultiplexed(subs);
  EXPECT_FALSE(ungrouped.ok());

  // An empty set compiles (subscriptions may arrive mid-stream)...
  auto mq = Query::From("feed", 2)
                .Window(WindowSpec::Tumbling(5'000))
                .GroupBy(0)
                .Sum("total", 1, uncertain::SumStrategyKind::kClt)
                .Sink("out")
                .CompileMultiplexed(subs, PlannerOptions{});
  ASSERT_TRUE(mq.ok()) << mq.status().message();
  EXPECT_TRUE(mq.value()->Finish().ok());

  // ...but the set is now bound; a second compile must refuse it.
  auto reused = Query::From("feed", 2)
                    .Window(WindowSpec::Tumbling(5'000))
                    .GroupBy(0)
                    .Sum("total", 1, uncertain::SumStrategyKind::kClt)
                    .Sink("out")
                    .CompileMultiplexed(subs, PlannerOptions{});
  EXPECT_FALSE(reused.ok());
}

}  // namespace
}  // namespace query
}  // namespace usp
