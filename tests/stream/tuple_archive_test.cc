#include "stream/tuple_archive.h"

#include <gtest/gtest.h>

namespace usp {
namespace stream {
namespace {

Tuple V(int64_t ts, double v) {
  Tuple t(ts, {Value(v)});
  t.InitBaseLineage();
  return t;
}

TEST(TupleArchiveTest, ArchiveAndLookup) {
  TupleArchive archive;
  const Tuple t = V(5, 1.0);
  archive.Archive(t);
  ASSERT_TRUE(archive.Lookup(t.id()).ok());
  EXPECT_EQ(archive.Lookup(t.id()).value().timestamp(), 5);
  EXPECT_FALSE(archive.Lookup(t.id() + 999999).ok());
}

TEST(TupleArchiveTest, ResolveLineageSkipsMissing) {
  TupleArchive archive;
  const Tuple a = V(1, 1.0);
  const Tuple b = V(2, 2.0);
  archive.Archive(a);
  archive.Archive(b);
  const auto resolved = archive.ResolveLineage({a.id(), 999999999, b.id()});
  EXPECT_EQ(resolved.size(), 2u);
}

TEST(TupleArchiveTest, EvictBeforeDropsOldTuples) {
  TupleArchive archive;
  const Tuple a = V(1, 1.0);
  const Tuple b = V(100, 2.0);
  archive.Archive(a);
  archive.Archive(b);
  archive.EvictBefore(50);
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_FALSE(archive.Lookup(a.id()).ok());
  EXPECT_TRUE(archive.Lookup(b.id()).ok());
}

}  // namespace
}  // namespace stream
}  // namespace usp
