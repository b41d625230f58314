#include "stream/group_by.h"

#include <gtest/gtest.h>

#include "stream/batch.h"

namespace usp {
namespace stream {
namespace {

// Tuples: [key (string), value (double)].
Tuple KV(int64_t ts, const std::string& key, double v) {
  Tuple t(ts, {Value(key), Value(v)});
  t.InitBaseLineage();
  return t;
}

AggregateSpec SumDoubles() {
  return {"sum", [](const std::vector<const Tuple*>& group)
                     -> common::Result<Value> {
            double s = 0.0;
            for (const Tuple* t : group) s += t->value(1).AsDouble();
            return Value(s);
          }};
}

TEST(GroupByTest, GroupsWithinWindow) {
  GroupByAggregateOperator op(
      "gb", WindowSpec::Tumbling(10),
      [](const Tuple& t) { return t.value(0).AsString(); }, {SumDoubles()});
  VectorCollector out;
  ASSERT_TRUE(op.PushBatch(TupleBatch({KV(0, "a", 1.0)}), &out).ok());
  ASSERT_TRUE(op.PushBatch(TupleBatch({KV(1, "b", 2.0)}), &out).ok());
  ASSERT_TRUE(op.PushBatch(TupleBatch({KV(2, "a", 3.0)}), &out).ok());
  ASSERT_TRUE(op.Close(&out).ok());
  ASSERT_EQ(out.tuples().size(), 2u);
  EXPECT_EQ(out.tuples()[0].value(0).AsString(), "a");
  EXPECT_EQ(out.tuples()[0].value(1).AsDouble(), 4.0);
  EXPECT_EQ(out.tuples()[1].value(0).AsString(), "b");
  EXPECT_EQ(out.tuples()[1].value(1).AsDouble(), 2.0);
}

TEST(GroupByTest, SeparateWindowsSeparateGroups) {
  GroupByAggregateOperator op(
      "gb", WindowSpec::Tumbling(10),
      [](const Tuple& t) { return t.value(0).AsString(); }, {SumDoubles()});
  VectorCollector out;
  ASSERT_TRUE(op.PushBatch(TupleBatch({KV(0, "a", 1.0)}), &out).ok());
  ASSERT_TRUE(op.PushBatch(TupleBatch({KV(15, "a", 5.0)}), &out).ok());
  ASSERT_TRUE(op.Close(&out).ok());
  ASSERT_EQ(out.tuples().size(), 2u);
  EXPECT_EQ(out.tuples()[0].value(1).AsDouble(), 1.0);
  EXPECT_EQ(out.tuples()[1].value(1).AsDouble(), 5.0);
}

TEST(GroupByTest, HavingFiltersGroups) {
  GroupByAggregateOperator op(
      "gb", WindowSpec::Tumbling(10),
      [](const Tuple& t) { return t.value(0).AsString(); }, {SumDoubles()},
      [](const Tuple& result) { return result.value(1).AsDouble() > 2.5; });
  VectorCollector out;
  ASSERT_TRUE(op.PushBatch(TupleBatch({KV(0, "small", 1.0)}), &out).ok());
  ASSERT_TRUE(op.PushBatch(TupleBatch({KV(1, "big", 9.0)}), &out).ok());
  ASSERT_TRUE(op.Close(&out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(0).AsString(), "big");
}

TEST(GroupByTest, MultipleAggregates) {
  AggregateSpec count{"count",
                      [](const std::vector<const Tuple*>& group)
                          -> common::Result<Value> {
                        return Value(static_cast<int64_t>(group.size()));
                      }};
  GroupByAggregateOperator op(
      "gb", WindowSpec::Tumbling(10),
      [](const Tuple& t) { return t.value(0).AsString(); },
      {SumDoubles(), count});
  VectorCollector out;
  ASSERT_TRUE(op.PushBatch(TupleBatch({KV(0, "a", 1.5)}), &out).ok());
  ASSERT_TRUE(op.PushBatch(TupleBatch({KV(1, "a", 2.5)}), &out).ok());
  ASSERT_TRUE(op.Close(&out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(1).AsDouble(), 4.0);
  EXPECT_EQ(out.tuples()[0].value(2).AsInt(), 2);
}

TEST(GroupByTest, ResultLineageIsGroupUnion) {
  GroupByAggregateOperator op(
      "gb", WindowSpec::Tumbling(10),
      [](const Tuple& t) { return t.value(0).AsString(); }, {SumDoubles()});
  VectorCollector out;
  const Tuple a = KV(0, "a", 1.0);
  const Tuple b = KV(1, "a", 2.0);
  const Tuple c = KV(2, "b", 3.0);
  ASSERT_TRUE(op.PushBatch(TupleBatch({a}), &out).ok());
  ASSERT_TRUE(op.PushBatch(TupleBatch({b}), &out).ok());
  ASSERT_TRUE(op.PushBatch(TupleBatch({c}), &out).ok());
  ASSERT_TRUE(op.Close(&out).ok());
  ASSERT_EQ(out.tuples().size(), 2u);
  EXPECT_EQ(out.tuples()[0].lineage(),
            (std::vector<TupleId>{std::min(a.id(), b.id()),
                                  std::max(a.id(), b.id())}));
  EXPECT_EQ(out.tuples()[1].lineage(), (std::vector<TupleId>{c.id()}));
}

TEST(GroupByTest, AggregateErrorPropagates) {
  AggregateSpec failing{"bad",
                        [](const std::vector<const Tuple*>&)
                            -> common::Result<Value> {
                          return common::Status::NumericError("x");
                        }};
  GroupByAggregateOperator op(
      "gb", WindowSpec::Tumbling(10),
      [](const Tuple& t) { return t.value(0).AsString(); }, {failing});
  VectorCollector out;
  ASSERT_TRUE(op.PushBatch(TupleBatch({KV(0, "a", 1.0)}), &out).ok());
  EXPECT_FALSE(op.Close(&out).ok());
}

}  // namespace
}  // namespace stream
}  // namespace usp
