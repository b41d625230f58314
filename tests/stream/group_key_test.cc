// Group identity of typed group keys. GroupKey must name exactly the
// groups CanonicalKeyString names: int 5, double 5.0 and string "5" are one
// group, while "05", a double >= 1e17, null and a distribution-valued key
// each keep their own. Checked on the key type itself, on its hash index,
// and end to end: the paned operator against the naive string-keyed
// GroupByAggregateOperator on a tumbling and a sliding window.

#include "stream/group_key.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "stats/gaussian.h"
#include "stream/batch.h"
#include "stream/group_by.h"
#include "stream/pane_window.h"

namespace usp {
namespace stream {
namespace {

std::vector<Value> SampleKeys() {
  const stats::DistributionPtr dist =
      std::make_shared<stats::Gaussian>(1.0, 2.0);
  return {Value(int64_t{5}),
          Value(5.0),
          Value(std::string("5")),
          Value(std::string("05")),
          Value(std::string("+5")),
          Value(std::string("5.0")),
          Value(int64_t{-5}),
          Value(-5.0),
          Value(std::string("-5")),
          Value(int64_t{0}),
          Value(0.0),
          Value(-0.0),
          Value(std::string("0")),
          Value(std::string("-0")),
          Value(1e16),
          Value(int64_t{10000000000000000}),
          Value(1e17),
          Value(int64_t{100000000000000000}),
          Value(std::string("1e+17")),
          Value(-1e17),
          Value(99999999999999984.0),
          Value(int64_t{99999999999999984}),
          Value(0.5),
          Value(std::numeric_limits<double>::infinity()),
          Value(std::numeric_limits<double>::quiet_NaN()),
          Value(std::numeric_limits<int64_t>::max()),
          Value(std::numeric_limits<int64_t>::min()),
          Value(std::string("9223372036854775808")),
          Value(std::string("-9223372036854775808")),
          Value(std::string("")),
          Value(std::string("-")),
          Value(std::string("all")),
          Value(),
          Value(std::string("null")),
          Value(dist),
          Value(std::string(dist->ToString()))};
}

TEST(GroupKeyTest, IdentityIsCanonicalKeyStringEquality) {
  const std::vector<Value> keys = SampleKeys();
  for (const Value& a : keys) {
    const GroupKey ka = GroupKey::Of(a);
    EXPECT_EQ(ka.ToString(), CanonicalKeyString(a)) << a.ToString();
    EXPECT_EQ(GroupKey(CanonicalKeyString(a)), ka) << a.ToString();
    for (const Value& b : keys) {
      const GroupKey kb = GroupKey::Of(b);
      const bool same = CanonicalKeyString(a) == CanonicalKeyString(b);
      EXPECT_EQ(ka == kb, same) << a.ToString() << " vs " << b.ToString();
      if (same) {
        EXPECT_EQ(ka.Hash(), kb.Hash()) << a.ToString();
      }
    }
  }
}

TEST(GroupKeyTest, IndexKeepsInsertionPositions) {
  std::vector<GroupKey> stored;
  GroupKeyIndex index;
  const auto key_at = [&stored](uint32_t p) -> const GroupKey& {
    return stored[p];
  };
  const auto add = [&](const GroupKey& key) {
    const uint32_t pos = index.FindOrAdd(key, key.Hash(), key_at);
    if (pos == stored.size()) stored.push_back(key);
    return pos;
  };
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(add(GroupKey(i * 7919)), 2 * i);
    ASSERT_EQ(add(GroupKey("k" + std::to_string(i))), 2 * i + 1);
  }
  EXPECT_EQ(index.size(), 10000u);
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(add(GroupKey(std::to_string(i * 7919))), 2 * i);
    ASSERT_EQ(add(GroupKey("k" + std::to_string(i))), 2 * i + 1);
  }
  EXPECT_EQ(stored.size(), 10000u);
  index.Clear();
  stored.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(add(GroupKey("k1")), 0u);
  EXPECT_EQ(add(GroupKey(int64_t{0})), 1u);
  EXPECT_EQ(add(GroupKey("k1")), 0u);
}

// ---- paned operator vs. the naive string-keyed oracle ---------------------

struct SumPartial final : PanePartial {
  double sum = 0.0;
};

PaneAggregateSpec PaneSum() {
  PaneAggregateSpec spec;
  spec.output_name = "sum";
  spec.make_partial = [] {
    return std::unique_ptr<PanePartial>(new SumPartial());
  };
  spec.add = [](PanePartial* p, const Tuple& t) {
    static_cast<SumPartial*>(p)->sum += t.value(1).AsDouble();
    return common::Status::OK();
  };
  spec.finalize =
      [](const std::vector<PanePartial*>& parts) -> common::Result<Value> {
    double sum = 0.0;
    for (PanePartial* p : parts) sum += static_cast<SumPartial*>(p)->sum;
    return Value(sum);
  };
  return spec;
}

AggregateSpec NaiveSum() {
  return {"sum", [](const std::vector<const Tuple*>& group)
                     -> common::Result<Value> {
            double sum = 0.0;
            for (const Tuple* t : group) sum += t->value(1).AsDouble();
            return Value(sum);
          }};
}

/// Keys of every kind, each paired with a distinct power-of-two weight so
/// a group's sum names exactly the tuples it holds. Timestamps 0..69 step
/// 5: tumbling windows of 20 hold four tuples, sliding 20/10 windows merge
/// each group across two panes.
TupleBatch MixedKeyStream() {
  const stats::DistributionPtr dist =
      std::make_shared<stats::Gaussian>(1.0, 2.0);
  const std::vector<Value> keys = {
      Value(std::string("05")), Value(5.0),         Value(),
      Value(std::string("5")),  Value(dist),        Value(int64_t{5}),
      Value(1e17),              Value(std::string("05")),
      Value(int64_t{100000000000000000}),           Value(std::string("5")),
      Value(dist),              Value(),            Value(5.0),
      Value(1e17)};
  TupleBatch batch;
  for (size_t i = 0; i < keys.size(); ++i) {
    Tuple t(static_cast<int64_t>(5 * i), {keys[i], Value(std::ldexp(1.0, i))});
    t.InitBaseLineage();
    batch.Append(std::move(t));
  }
  return batch;
}

std::vector<Tuple> RunPaned(const WindowSpec& spec, const TupleBatch& in) {
  PanedGroupByAggregateOperator op(
      "paned", spec, [](const Tuple& t) { return GroupKey::Of(t.value(0)); },
      {PaneSum()});
  VectorCollector out;
  EXPECT_TRUE(op.PushBatch(in, &out).ok());
  EXPECT_TRUE(op.Close(&out).ok());
  return out.tuples();
}

std::vector<Tuple> RunNaive(const WindowSpec& spec, const TupleBatch& in) {
  GroupByAggregateOperator op(
      "naive", spec,
      [](const Tuple& t) { return CanonicalKeyString(t.value(0)); },
      {NaiveSum()});
  VectorCollector out;
  EXPECT_TRUE(op.PushBatch(in, &out).ok());
  EXPECT_TRUE(op.Close(&out).ok());
  return out.tuples();
}

/// Same rows in the same order: timestamp, key string, sum, lineage.
void ExpectSameRows(const std::vector<Tuple>& oracle,
                    const std::vector<Tuple>& paned) {
  ASSERT_EQ(oracle.size(), paned.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(oracle[i].timestamp(), paned[i].timestamp()) << "row " << i;
    EXPECT_EQ(oracle[i].value(0).AsString(), paned[i].value(0).AsString())
        << "row " << i;
    EXPECT_EQ(oracle[i].value(1).AsDouble(), paned[i].value(1).AsDouble())
        << "row " << i;
    EXPECT_EQ(oracle[i].lineage(), paned[i].lineage()) << "row " << i;
  }
}

std::vector<std::string> KeysAt(const std::vector<Tuple>& rows, int64_t ts) {
  std::vector<std::string> keys;
  for (const Tuple& row : rows) {
    if (row.timestamp() == ts) keys.push_back(row.value(0).AsString());
  }
  return keys;
}

TEST(GroupKeyTest, TumblingGroupsMatchOracleAcrossValueKinds) {
  const TupleBatch in = MixedKeyStream();
  const WindowSpec spec = WindowSpec::Tumbling(20);
  const std::vector<Tuple> paned = RunPaned(spec, in);
  ExpectSameRows(RunNaive(spec, in), paned);
  const std::string dist = stats::Gaussian(1.0, 2.0).ToString();
  // [0, 20): "05", 5.0, null, "5" -> 5.0 and "5" share the group "5".
  EXPECT_EQ(KeysAt(paned, 20),
            (std::vector<std::string>{"05", "5", "null"}));
  // [20, 40): dist, 5, 1e17, "05" in first-seen order.
  EXPECT_EQ(KeysAt(paned, 40),
            (std::vector<std::string>{dist, "5", "1e+17", "05"}));
  // [40, 60): int 1e17 renders "100000000000000000", not the double's
  // "1e+17", so the two never share a group.
  EXPECT_EQ(KeysAt(paned, 60), (std::vector<std::string>{
                                   "100000000000000000", "5", dist, "null"}));
  EXPECT_EQ(KeysAt(paned, 80), (std::vector<std::string>{"5", "1e+17"}));
  ASSERT_EQ(paned.size(), 13u);
  // Group "5" of [0, 20) sums 5.0 (weight 2^1) and "5" (weight 2^3).
  EXPECT_EQ(paned[1].value(1).AsDouble(),
            std::ldexp(1.0, 1) + std::ldexp(1.0, 3));
}

TEST(GroupKeyTest, SlidingGroupsMatchOracleAcrossValueKinds) {
  const TupleBatch in = MixedKeyStream();
  const WindowSpec spec = WindowSpec::Sliding(20, 10);
  const std::vector<Tuple> paned = RunPaned(spec, in);
  ExpectSameRows(RunNaive(spec, in), paned);
  // [10, 30) spans panes [10, 20) {null ts10, "5" ts15} and [20, 30)
  // {dist ts20, 5 ts25}: int 5 joins the group "5" first seen in the
  // earlier pane.
  EXPECT_EQ(KeysAt(paned, 30),
            (std::vector<std::string>{"null", "5",
                                      stats::Gaussian(1.0, 2.0).ToString()}));
  for (const Tuple& row : paned) {
    if (row.timestamp() == 30 && row.value(0).AsString() == "5") {
      EXPECT_EQ(row.value(1).AsDouble(),
                std::ldexp(1.0, 3) + std::ldexp(1.0, 5));
    }
  }
}

}  // namespace
}  // namespace stream
}  // namespace usp
