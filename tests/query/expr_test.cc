// Attr(i) <op> c comparison helper: evaluation semantics per Value kind,
// and — the reason the helper exists — the automatically derived read set
// must enable the planner's filter pushdown without a hand-declared
// reads_attrs.

#include "query/expr.h"

#include <gtest/gtest.h>

#include <memory>

#include "query/planner.h"
#include "query/query.h"
#include "stats/gaussian.h"
#include "stream/tuple.h"
#include "stream/value.h"
#include "uncertain/sum_strategies.h"

namespace usp {
namespace query {
namespace {

using stream::Tuple;
using stream::Value;

Tuple OneValueTuple(Value v) { return Tuple(0, {std::move(v)}); }

TEST(ComparePredicateTest, NumericSemantics) {
  EXPECT_TRUE((Attr(0) > 10.0).Eval(OneValueTuple(Value(11.0))));
  EXPECT_FALSE((Attr(0) > 10.0).Eval(OneValueTuple(Value(10.0))));
  EXPECT_TRUE((Attr(0) >= 10.0).Eval(OneValueTuple(Value(10.0))));
  EXPECT_TRUE((Attr(0) < 10.0).Eval(OneValueTuple(Value(int64_t{9}))));
  EXPECT_TRUE((Attr(0) <= 9.0).Eval(OneValueTuple(Value(int64_t{9}))));
  EXPECT_TRUE((Attr(0) == 9.0).Eval(OneValueTuple(Value(int64_t{9}))));
  EXPECT_TRUE((Attr(0) != 9.5).Eval(OneValueTuple(Value(int64_t{9}))));
}

TEST(ComparePredicateTest, DistributionsCompareByMean) {
  Value g(stats::DistributionPtr(std::make_shared<stats::Gaussian>(5.0, 2.0)));
  EXPECT_TRUE((Attr(0) > 4.0).Eval(OneValueTuple(g)));
  EXPECT_FALSE((Attr(0) > 5.0).Eval(OneValueTuple(g)));
}

TEST(ComparePredicateTest, StringsNullsAndOutOfRangeAreFalse) {
  EXPECT_FALSE((Attr(0) > 0.0).Eval(OneValueTuple(Value(std::string("x")))));
  EXPECT_FALSE((Attr(0) < 1e18).Eval(OneValueTuple(Value())));
  EXPECT_FALSE((Attr(3) > 0.0).Eval(OneValueTuple(Value(1.0))));
}

TEST(ComparePredicateTest, ToStringNamesTheComparison) {
  EXPECT_EQ((Attr(1) > 30.0).ToString(), "attr(1) > 30");
  EXPECT_EQ((Attr(2) <= 0.5).ToString(), "attr(2) <= 0.5");
}

TEST(ComparePredicateTest, DerivedReadSetEnablesFilterPushdown) {
  // annotate appends attr 2 and preserves [0, 2); the filter reads only
  // attr 1, so with the derived read set the planner must push it below
  // the map. The equivalent lambda filter WITHOUT reads_attrs cannot be
  // pushed — that contrast is exactly what Attr() buys.
  auto annotate = [](const Tuple& t) -> common::Result<Tuple> {
    Tuple out = t;
    out.AppendValue(t.value(1).AsDouble() * 2.0);
    return out;
  };
  auto compiled =
      Query::From("feed", 2)
          .Map("annotate", annotate, /*output_arity=*/3,
               /*preserved_prefix=*/2)
          .Filter("hot", Attr(1) > 30.0)
          .Window(stream::WindowSpec::Tumbling(5'000))
          .GroupBy(0)
          .Sum("total", 2, uncertain::SumStrategyKind::kClt)
          .Sink("out")
          .Compile({});
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  const PlanSummary& summary = compiled.value()->summary();
  ASSERT_EQ(summary.pushed_filters.size(), 1u);
  EXPECT_EQ(summary.pushed_filters[0].first, "hot");
  EXPECT_EQ(summary.pushed_filters[0].second, "annotate");
}

}  // namespace
}  // namespace query
}  // namespace usp
