// Batch-boundary tests for the window / group-by / join operators: a
// stream pushed in batches of any size must give the same tuples
// (timestamps, values, lineage) as the same stream pushed as one-tuple
// batches, the reference, including batches that straddle window
// boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "stats/gaussian.h"
#include "stream/batch.h"
#include "stream/group_by.h"
#include "stream/join.h"
#include "stream/window.h"
#include "uncertain/aggregates.h"
#include "uncertain/join_predicates.h"
#include "uncertain/sum_strategies.h"

namespace usp {
namespace stream {
namespace {

Tuple MakeTuple(int64_t ts, std::string key, double weight) {
  Tuple t(ts, {Value(std::move(key)), Value(weight)});
  t.InitBaseLineage();
  return t;
}

std::vector<Tuple> MakeStream(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Tuple> out;
  int64_t ts = 0;
  for (size_t i = 0; i < n; ++i) {
    ts += static_cast<int64_t>(rng.UniformInt(4));  // duplicates + gaps
    const char* keys[] = {"a", "b", "c"};
    out.push_back(MakeTuple(ts, keys[rng.UniformInt(3)], rng.Uniform()));
  }
  return out;
}

void ExpectSameTuples(const std::vector<Tuple>& a,
                      const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp(), b[i].timestamp()) << "tuple " << i;
    ASSERT_EQ(a[i].num_values(), b[i].num_values()) << "tuple " << i;
    for (size_t v = 0; v < a[i].num_values(); ++v) {
      EXPECT_TRUE(a[i].value(v) == b[i].value(v))
          << "tuple " << i << " value " << v;
    }
    EXPECT_EQ(a[i].lineage(), b[i].lineage()) << "tuple " << i;
  }
}

// Independent reference: a walk-back loop (descending starts while the
// window still contains ts), so the arithmetic ForEachAssignedStart /
// First / Last forms are not compared against themselves.
std::vector<int64_t> WalkBackStarts(const WindowSpec& spec, int64_t ts) {
  std::vector<int64_t> starts;
  int64_t k = ts / spec.slide_us;
  if (ts < 0 && ts % spec.slide_us != 0) --k;
  int64_t start = k * spec.slide_us;
  while (start + spec.size_us > ts) {
    starts.push_back(start);
    start -= spec.slide_us;
  }
  return starts;
}

TEST(WindowSpecBatchTest, ArithmeticStartsMatchWalkBackReference) {
  const WindowSpec specs[] = {
      WindowSpec::Tumbling(10), WindowSpec::Sliding(10, 5),
      WindowSpec::Sliding(100, 25), WindowSpec::Sliding(9, 4),
      WindowSpec::Sliding(7, 7)};
  for (const WindowSpec& spec : specs) {
    for (int64_t ts = -40; ts <= 220; ++ts) {
      const std::vector<int64_t> expected = WalkBackStarts(spec, ts);
      std::vector<int64_t> got;
      spec.ForEachAssignedStart(ts, [&got](int64_t s) { got.push_back(s); });
      EXPECT_EQ(got, expected) << "size=" << spec.size_us
                               << " slide=" << spec.slide_us << " ts=" << ts;
      EXPECT_EQ(expected.front(), spec.LastAssignedStart(ts));
      EXPECT_EQ(expected.back(), spec.FirstAssignedStart(ts));
    }
  }
}

// Drives one operator with one-tuple batches and a second instance with
// batches of `batch_size` and compares outputs after Close().
template <typename MakeOp>
void CheckBatchEquivalence(MakeOp make_op, const std::vector<Tuple>& stream,
                           size_t batch_size) {
  auto one_by_one = make_op();
  VectorCollector ref;
  for (const Tuple& t : stream) {
    ASSERT_TRUE(one_by_one->PushBatch(TupleBatch({t}), &ref).ok());
  }
  ASSERT_TRUE(one_by_one->Close(&ref).ok());

  auto batched = make_op();
  VectorCollector got;
  for (size_t i = 0; i < stream.size(); i += batch_size) {
    TupleBatch batch;
    for (size_t j = i; j < std::min(i + batch_size, stream.size()); ++j) {
      batch.Append(stream[j]);
    }
    ASSERT_TRUE(batched->PushBatch(batch, &got).ok());
  }
  ASSERT_TRUE(batched->Close(&got).ok());

  ExpectSameTuples(ref.tuples(), got.tuples());
}

TEST(WindowBatchTest, CountTumblingMatchesPerTuple) {
  const auto stream = MakeStream(300, 7);
  for (size_t batch_size : {1u, 3u, 64u, 1024u}) {
    CheckBatchEquivalence(
        [] {
          return std::make_unique<WindowCountOperator>(
              "count", WindowSpec::Tumbling(10));
        },
        stream, batch_size);
  }
}

TEST(WindowBatchTest, CountSlidingMatchesPerTuple) {
  const auto stream = MakeStream(300, 8);
  for (size_t batch_size : {1u, 7u, 64u}) {
    CheckBatchEquivalence(
        [] {
          return std::make_unique<WindowCountOperator>(
              "count", WindowSpec::Sliding(12, 4));
        },
        stream, batch_size);
  }
}

TEST(WindowBatchTest, NonDividingSlideMatchesPerTuple) {
  // size % slide != 0 stresses the arithmetic start-range computation.
  const auto stream = MakeStream(200, 9);
  for (size_t batch_size : {1u, 5u, 50u}) {
    CheckBatchEquivalence(
        [] {
          return std::make_unique<WindowCountOperator>(
              "count", WindowSpec::Sliding(9, 4));
        },
        stream, batch_size);
  }
}

std::unique_ptr<GroupByAggregateOperator> MakeGroupBy(
    WindowSpec spec, uncertain::SumStrategy* strategy) {
  std::vector<AggregateSpec> aggs;
  aggs.push_back(uncertain::MakeSumAggregate("sum_w", 1, strategy));
  aggs.push_back(uncertain::MakeCountAggregate("cnt"));
  return std::make_unique<GroupByAggregateOperator>(
      "q1", spec, [](const Tuple& t) { return t.value(0).AsString(); },
      std::move(aggs));
}

TEST(GroupByBatchTest, TumblingMatchesPerTuple) {
  const auto stream = MakeStream(300, 10);
  uncertain::CltSum clt;
  for (size_t batch_size : {1u, 16u, 300u}) {
    CheckBatchEquivalence(
        [&clt] { return MakeGroupBy(WindowSpec::Tumbling(10), &clt); },
        stream, batch_size);
  }
}

TEST(GroupByBatchTest, SlidingMatchesPerTuple) {
  const auto stream = MakeStream(300, 11);
  uncertain::CltSum clt;
  for (size_t batch_size : {1u, 16u, 100u}) {
    CheckBatchEquivalence(
        [&clt] { return MakeGroupBy(WindowSpec::Sliding(20, 5), &clt); },
        stream, batch_size);
  }
}

TEST(GroupByBatchTest, BoundaryStraddlingBatches) {
  // Batches cut exactly at and around window boundaries.
  std::vector<Tuple> stream;
  for (int64_t ts : {0, 4, 9, 10, 10, 11, 19, 20, 21, 29, 30, 40}) {
    stream.push_back(MakeTuple(ts, ts % 2 ? "odd" : "even", 1.0));
  }
  uncertain::CltSum clt;
  for (size_t batch_size : {2u, 3u, 4u, 12u}) {
    CheckBatchEquivalence(
        [&clt] { return MakeGroupBy(WindowSpec::Tumbling(10), &clt); },
        stream, batch_size);
  }
}

TEST(JoinBatchTest, BatchPushMatchesPerTuple) {
  // Interleaved left/right streams joined in one-tuple batches vs. in
  // batches of 16.
  common::Rng rng(12);
  std::vector<Tuple> left, right;
  int64_t ts = 0;
  for (size_t i = 0; i < 120; ++i) {
    ts += static_cast<int64_t>(rng.UniformInt(3));
    Tuple l(ts, {Value(static_cast<double>(rng.UniformInt(5)))});
    l.InitBaseLineage();
    left.push_back(std::move(l));
    Tuple r(ts, {Value(static_cast<double>(rng.UniformInt(5)))});
    r.InitBaseLineage();
    right.push_back(std::move(r));
  }
  const auto match = [](const Tuple& l, const Tuple& r)
      -> std::optional<Tuple> {
    if (l.value(0).AsDouble() != r.value(0).AsDouble()) return std::nullopt;
    return ConcatJoinedTuple(l, r);
  };

  // Emission order depends on push order, so the equivalence claim is:
  // one batch push == the same sequence of one-tuple pushes. Drive both
  // with an identical alternating left-batch/right-batch schedule.
  const size_t kBatch = 16;
  SlidingWindowJoin ref_join("j", 5, match);
  VectorCollector ref;
  for (size_t i = 0; i < left.size(); i += kBatch) {
    const size_t end = std::min(i + kBatch, left.size());
    for (size_t j = i; j < end; ++j) {
      ASSERT_TRUE(ref_join.PushLeftBatch(TupleBatch({left[j]}), &ref).ok());
    }
    for (size_t j = i; j < end; ++j) {
      ASSERT_TRUE(ref_join.PushRightBatch(TupleBatch({right[j]}), &ref).ok());
    }
  }
  ASSERT_TRUE(ref_join.Close().ok());

  SlidingWindowJoin batch_join("j", 5, match);
  VectorCollector got;
  for (size_t i = 0; i < left.size(); i += kBatch) {
    TupleBatch lb, rb;
    for (size_t j = i; j < std::min(i + kBatch, left.size()); ++j) {
      lb.Append(left[j]);
      rb.Append(right[j]);
    }
    ASSERT_TRUE(batch_join.PushLeftBatch(lb, &got).ok());
    ASSERT_TRUE(batch_join.PushRightBatch(rb, &got).ok());
  }
  ASSERT_TRUE(batch_join.Close().ok());

  ExpectSameTuples(ref.tuples(), got.tuples());

  // Metrics: the same tuple counts, metered once per batch.
  EXPECT_EQ(ref_join.metrics().tuples_in, batch_join.metrics().tuples_in);
  EXPECT_EQ(ref_join.metrics().tuples_out, batch_join.metrics().tuples_out);
  EXPECT_EQ(ref_join.metrics().batches_in, 2 * left.size());
  EXPECT_EQ(batch_join.metrics().batches_in,
            2 * ((left.size() + kBatch - 1) / kBatch));
}

TEST(JoinBatchTest, ProbabilisticPredicateCachedProbeMatches) {
  // The prepared-probe cache in MakeProbabilisticEqualityMatch must not
  // change results vs. a fresh evaluation per pair.
  common::Rng rng(13);
  uncertain::EqualityJoinSpec spec;
  spec.left_attrs = {0};
  spec.right_attrs = {0};
  spec.eps = 1.0;
  spec.min_confidence = 0.3;
  auto match = uncertain::MakeProbabilisticEqualityMatch(spec);

  SlidingWindowJoin join("pj", 10, match);
  VectorCollector out;
  int64_t ts = 0;
  size_t matches = 0;
  for (size_t i = 0; i < 60; ++i) {
    ts += 1;
    auto g = stats::Gaussian::Make(rng.Uniform(-2.0, 2.0),
                                   0.2 + rng.Uniform());
    ASSERT_TRUE(g.ok());
    Tuple l(ts, {Value(stats::DistributionPtr(
                    std::make_shared<stats::Gaussian>(g.MoveValueUnsafe())))});
    Tuple r(ts, {Value(rng.Uniform(-2.0, 2.0))});
    ASSERT_TRUE(join.PushLeftBatch(TupleBatch({l}), &out).ok());
    ASSERT_TRUE(join.PushRightBatch(TupleBatch({r}), &out).ok());
  }
  matches = out.tuples().size();
  // Reference: evaluate the raw predicate for every eligible pair.
  // (The join emits exactly the pairs with P >= min_confidence.)
  for (const Tuple& t : out.tuples()) {
    ASSERT_EQ(t.num_values(), 3u);  // left dist, right value, probability
    EXPECT_GE(t.value(2).AsDouble(), spec.min_confidence);
  }
  EXPECT_GT(matches, 0u);
}

}  // namespace
}  // namespace stream
}  // namespace usp
