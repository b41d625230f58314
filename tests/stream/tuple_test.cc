#include "stream/tuple.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <thread>
#include <utility>
#include <vector>

// Counting replacements of the global allocation functions, so a test can
// assert how many heap allocations one operation makes. Every form is
// replaced and backed by malloc/free, so new and delete always pair up
// (also under sanitizers, which intercept malloc/free). GCC inlines the
// replacement delete and warns that free() meets operator new; that pairing
// is exactly the one defined here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<size_t> g_allocations{0};

void* CountedAlloc(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return ::operator new(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace usp {
namespace stream {
namespace {

TEST(TupleTest, IdsAreUnique) {
  const Tuple a(0, {});
  const Tuple b(0, {});
  EXPECT_NE(a.id(), b.id());
}

TEST(TupleTest, TimestampAndValues) {
  Tuple t(1000, {Value(int64_t{1}), Value(2.0)});
  EXPECT_EQ(t.timestamp(), 1000);
  EXPECT_EQ(t.num_values(), 2u);
  EXPECT_EQ(t.value(0).AsInt(), 1);
  t.AppendValue(std::string("x"));
  EXPECT_EQ(t.num_values(), 3u);
  t.set_timestamp(2000);
  EXPECT_EQ(t.timestamp(), 2000);
}

TEST(TupleTest, BaseLineageIsOwnId) {
  Tuple t(0, {});
  EXPECT_TRUE(t.lineage().empty());
  t.InitBaseLineage();
  ASSERT_EQ(t.lineage().size(), 1u);
  EXPECT_EQ(t.lineage()[0], t.id());
}

TEST(TupleTest, SetLineageSortsAndDedups) {
  Tuple t(0, {});
  t.SetLineage({5, 3, 5, 1, 3});
  EXPECT_EQ(t.lineage(), (std::vector<TupleId>{1, 3, 5}));
}

TEST(TupleTest, MergeLineageUnions) {
  Tuple a(0, {});
  a.SetLineage({1, 3});
  Tuple b(0, {});
  b.SetLineage({2, 3, 7});
  a.MergeLineageFrom(b);
  EXPECT_EQ(a.lineage(), (std::vector<TupleId>{1, 2, 3, 7}));
}

TEST(TupleTest, SharesLineageDetectsOverlap) {
  Tuple a(0, {}), b(0, {}), c(0, {});
  a.SetLineage({1, 2});
  b.SetLineage({2, 3});
  c.SetLineage({4});
  EXPECT_TRUE(a.SharesLineageWith(b));
  EXPECT_FALSE(a.SharesLineageWith(c));
  EXPECT_FALSE(b.SharesLineageWith(c));
}

TEST(TupleTest, BaseLineageSurvivesCopyMoveAndAppend) {
  Tuple t(0, {Value(1.0)});
  t.InitBaseLineage();
  const TupleId id = t.id();
  const std::vector<TupleId> expected{id};

  const Tuple copy(t);
  EXPECT_EQ(copy.id(), id);
  EXPECT_EQ(copy.lineage(), expected);

  Tuple assigned(0, {});
  assigned = copy;
  EXPECT_EQ(assigned.lineage(), expected);

  Tuple moved(std::move(t));
  EXPECT_EQ(moved.lineage(), expected);
  Tuple move_assigned(0, {});
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.lineage(), expected);

  move_assigned.AppendValue(2.0);
  EXPECT_EQ(move_assigned.num_values(), 2u);
  EXPECT_EQ(move_assigned.lineage(), expected);
}

TEST(TupleTest, SetLineageAndInitBaseLineageReplaceEachOther) {
  Tuple t(0, {});
  t.InitBaseLineage();
  t.SetLineage({9, 4});
  EXPECT_EQ(t.lineage(), (std::vector<TupleId>{4, 9}));
  t.InitBaseLineage();
  EXPECT_EQ(t.lineage(), (std::vector<TupleId>{t.id()}));
  // A base tuple charges no heap lineage, however it got there.
  EXPECT_EQ(t.ApproxBytes(), sizeof(Tuple));
}

TEST(TupleTest, MergeOfTwoBaseTuplesHasBothIdsSorted) {
  Tuple older(0, {});
  Tuple newer(0, {});
  older.InitBaseLineage();
  newer.InitBaseLineage();
  ASSERT_LT(older.id(), newer.id());
  newer.MergeLineageFrom(older);
  EXPECT_EQ(newer.lineage(),
            (std::vector<TupleId>{older.id(), newer.id()}));
  EXPECT_EQ(older.lineage(), (std::vector<TupleId>{older.id()}));
}

TEST(TupleTest, BaseTupleSharesLineageWithCopiesAndDerivedTuples) {
  Tuple base(0, {});
  base.InitBaseLineage();
  const Tuple copy(base);
  EXPECT_TRUE(copy.SharesLineageWith(base));
  EXPECT_TRUE(base.SharesLineageWith(copy));
  EXPECT_EQ(copy.lineage(), base.lineage());

  Tuple derived(0, {});
  derived.SetLineage({base.id() + 1000, base.id()});
  EXPECT_TRUE(base.SharesLineageWith(derived));
  EXPECT_TRUE(derived.SharesLineageWith(base));

  Tuple other(0, {});
  other.InitBaseLineage();
  EXPECT_FALSE(base.SharesLineageWith(other));
  EXPECT_FALSE(other.SharesLineageWith(derived));
}

TEST(TupleTest, CopyingBaseTupleAllocatesOnlyTheValues) {
  Tuple t(7, {Value(int64_t{1}), Value(2.0), Value(3.0)});
  t.InitBaseLineage();
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  const Tuple copy(t);
  const size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 1u);  // the values vector, not the lineage
  EXPECT_EQ(copy.num_values(), 3u);
  EXPECT_EQ(copy.lineage(), (std::vector<TupleId>{t.id()}));
}

TEST(TupleTest, SharesLineageEmptyIsFalse) {
  Tuple a(0, {}), b(0, {});
  EXPECT_FALSE(a.SharesLineageWith(b));
}

TEST(TupleTest, ToStringContainsIdAndValues) {
  Tuple t(42, {Value(int64_t{9})});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("@42"), std::string::npos);
  EXPECT_NE(s.find("9"), std::string::npos);
}

TEST(NextTupleIdTest, MonotonicallyIncreasing) {
  const TupleId a = NextTupleId();
  const TupleId b = NextTupleId();
  EXPECT_GT(b, a);
}

TEST(NextTupleIdTest, ThreadsDrawUniqueIdsIncreasingPerThread) {
  constexpr size_t kThreads = 4;
  constexpr size_t kIdsPerThread = 100000;
  std::vector<std::vector<TupleId>> ids(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] {
      ids[t].reserve(kIdsPerThread);
      for (size_t i = 0; i < kIdsPerThread; ++i) {
        ids[t].push_back(NextTupleId());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<TupleId> all;
  for (const std::vector<TupleId>& mine : ids) {
    EXPECT_EQ(std::adjacent_find(mine.begin(), mine.end(),
                                 std::greater_equal<TupleId>()),
              mine.end())
        << "ids not strictly increasing within a thread";
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "an id was handed out twice";
  EXPECT_EQ(all.size(), kThreads * kIdsPerThread);
}

}  // namespace
}  // namespace stream
}  // namespace usp
