// Multi-producer ingest tests: result-set invariance across 1/2/4
// concurrent ingest lanes (seeded feeds, bitwise-compared against the
// single-lane run), per-source arrival order at the shards, the
// source-to-lane binding contract, the Finish() shutdown ordering
// regression (lanes close before rings: racing pushes fail loudly, never
// deadlock or drop silently), and ingest backpressure counters.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "stream/basic_operators.h"
#include "stream/group_by.h"
#include "stream/sharded_executor.h"
#include "test_wait.h"

namespace usp {
namespace stream {
namespace {

Tuple KV(int64_t ts, int64_t key, double v) {
  Tuple t(ts, {Value(key), Value(v)});
  t.InitBaseLineage();
  return t;
}

using testutil::WaitUntil;

// Seeded per-source feed: deterministic (ts, key, value) stream so every
// lane-count run aggregates exactly the same numbers.
std::vector<TupleBatch> MakeFeed(size_t source_index, size_t num_tuples,
                                 size_t batch_size) {
  std::vector<TupleBatch> batches;
  TupleBatch batch;
  for (size_t i = 0; i < num_tuples; ++i) {
    const int64_t ts = static_cast<int64_t>(i * 3 + source_index);
    const int64_t key = static_cast<int64_t>((i * 7 + source_index) % 13);
    const double value =
        0.5 + static_cast<double>((i + source_index * 31) % 9);
    batch.Append(KV(ts, key, value));
    if (batch.size() == batch_size) {
      batches.push_back(std::move(batch));
      batch = TupleBatch();
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

// One keyed windowed SUM chain per source: each chain only ever sees its
// own source's tuples, so per-source arrival order is all the chain's
// window operator needs, whatever the cross-lane interleaving.
struct MultiChainPlan {
  std::vector<ExecGraph::NodeId> sources;
  std::vector<ExecGraph::NodeId> sinks;
};

common::Status BuildMultiChainPlan(size_t num_chains, ExecGraph* g,
                                   MultiChainPlan* out) {
  out->sources.clear();
  out->sinks.clear();
  for (size_t c = 0; c < num_chains; ++c) {
    const auto src = g->AddSource("src" + std::to_string(c));
    const auto agg = g->AddOperator(
        src, std::make_unique<GroupByAggregateOperator>(
                 "sum" + std::to_string(c), WindowSpec::Tumbling(100),
                 [](const Tuple& t) {
                   return std::to_string(t.value(0).AsInt());
                 },
                 std::vector<AggregateSpec>{
                     {"sum",
                      [](const std::vector<const Tuple*>& group)
                          -> common::Result<Value> {
                        double sum = 0.0;
                        for (const Tuple* t : group) {
                          sum += t->value(1).AsDouble();
                        }
                        return Value(sum);
                      }}}));
    out->sinks.push_back(g->AddSink(agg, "out" + std::to_string(c)));
    out->sources.push_back(src);
  }
  return common::Status::OK();
}

// %.17g round-trips doubles, so equal strings == bitwise-equal results.
std::vector<std::string> Canonical(const TupleBatch& batch) {
  std::vector<std::string> out;
  out.reserve(batch.size());
  for (const Tuple& t : batch) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%lld|%s|%.17g",
                  static_cast<long long>(t.timestamp()),
                  t.value(0).AsString().c_str(), t.value(1).AsDouble());
    out.push_back(buf);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Runs the 4-chain plan with `num_lanes` ingest lanes, one producer
// thread per lane, sources assigned round-robin to lanes. Returns the
// canonical per-sink results.
common::Result<std::vector<std::vector<std::string>>> RunMultiLane(
    size_t num_lanes, size_t num_shards) {
  constexpr size_t kChains = 4;
  constexpr size_t kTuplesPerFeed = 1500;
  ShardedExecutor::Options opts;
  opts.num_shards = num_shards;
  opts.num_ingest_lanes = num_lanes;
  opts.queue_capacity = 8;  // small: exercise the backpressure path
  MultiChainPlan plan;
  auto exec_or = ShardedExecutor::Create(
      opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext&) {
        return BuildMultiChainPlan(kChains, g, &plan);
      });
  USP_RETURN_NOT_OK(exec_or.status());
  auto exec = exec_or.MoveValueUnsafe();

  std::vector<common::Status> lane_status(num_lanes);
  std::vector<std::thread> producers;
  producers.reserve(num_lanes);
  for (size_t lane = 0; lane < num_lanes; ++lane) {
    producers.emplace_back([&, lane] {
      for (size_t c = lane; c < kChains; c += num_lanes) {
        for (TupleBatch& b : MakeFeed(c, kTuplesPerFeed, 64)) {
          const auto st =
              exec->PushBatch(lane, plan.sources[c], std::move(b));
          if (!st.ok()) {
            lane_status[lane] = st;
            return;
          }
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  for (const auto& st : lane_status) USP_RETURN_NOT_OK(st);
  USP_RETURN_NOT_OK(exec->Finish());
  std::vector<std::vector<std::string>> results;
  for (const auto sink : plan.sinks) {
    results.push_back(Canonical(exec->sink_output(sink)));
  }
  return results;
}

TEST(MultiLaneIngestTest, ResultSetInvariantAcrossLaneCounts) {
  for (size_t num_shards : {size_t{1}, size_t{2}}) {
    auto one = RunMultiLane(1, num_shards);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    ASSERT_FALSE(one.value().empty());
    for (const auto& sink : one.value()) {
      ASSERT_FALSE(sink.empty());
    }
    for (size_t lanes : {size_t{2}, size_t{4}}) {
      auto many = RunMultiLane(lanes, num_shards);
      ASSERT_TRUE(many.ok()) << many.status().ToString();
      EXPECT_EQ(many.value(), one.value())
          << "results differ at " << lanes << " lanes, " << num_shards
          << " shards";
    }
  }
}

TEST(MultiLaneIngestTest, ShardsObservePerSourceArrivalOrder) {
  // Two sources on two concurrent lanes; a tap per chain records the
  // timestamps its shard worker actually observed. Per-source order must
  // be nondecreasing on every shard, whatever the lane interleaving did.
  constexpr size_t kShards = 2;
  ShardedExecutor::Options opts;
  opts.num_shards = kShards;
  opts.num_ingest_lanes = 2;
  opts.queue_capacity = 4;
  // (chain, shard) -> observed timestamps. Worker-thread-private during
  // the run; read after Finish().
  std::vector<std::vector<int64_t>> seen(2 * kShards);
  ExecGraph::NodeId src[2] = {0, 0};
  auto exec_or = ShardedExecutor::Create(
      opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext& ctx) {
        for (size_t c = 0; c < 2; ++c) {
          src[c] = g->AddSource("src" + std::to_string(c));
          std::vector<int64_t>* sink_seen = &seen[c * kShards +
                                                 ctx.shard_index];
          const auto tap = g->AddOperator(
              src[c], std::make_unique<TapOperator>(
                          "tap" + std::to_string(c),
                          [sink_seen](const Tuple& t) {
                            sink_seen->push_back(t.timestamp());
                          }));
          g->AddSink(tap, "out" + std::to_string(c));
        }
        return common::Status::OK();
      });
  ASSERT_TRUE(exec_or.ok()) << exec_or.status().ToString();
  auto exec = exec_or.MoveValueUnsafe();
  auto produce = [&](size_t lane) {
    for (TupleBatch& b : MakeFeed(lane, 4000, 16)) {
      ASSERT_TRUE(exec->PushBatch(lane, src[lane], std::move(b)).ok());
    }
  };
  std::thread a(produce, 0), b(produce, 1);
  a.join();
  b.join();
  ASSERT_TRUE(exec->Finish().ok());
  size_t total_seen = 0;
  for (size_t i = 0; i < seen.size(); ++i) {
    for (size_t j = 1; j < seen[i].size(); ++j) {
      ASSERT_LE(seen[i][j - 1], seen[i][j])
          << "per-source order violated at chain " << i / kShards
          << " shard " << i % kShards;
    }
    total_seen += seen[i].size();
  }
  EXPECT_EQ(total_seen, 8000u);
}

TEST(MultiLaneIngestTest, SourceCannotMoveBetweenLanes) {
  ShardedExecutor::Options opts;
  opts.num_shards = 1;
  opts.num_ingest_lanes = 2;
  ExecGraph::NodeId source = 0;
  auto exec_or = ShardedExecutor::Create(
      opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext&) {
        source = g->AddSource("src");
        const auto pass = g->AddOperator(
            source, std::make_unique<FilterOperator>(
                        "pass", [](const Tuple&) { return true; }));
        g->AddSink(pass, "out");
        return common::Status::OK();
      });
  ASSERT_TRUE(exec_or.ok());
  auto exec = exec_or.MoveValueUnsafe();
  TupleBatch batch;
  batch.Append(KV(1, 1, 1.0));
  ASSERT_TRUE(exec->PushBatch(0, source, batch).ok());
  const auto st = exec->PushBatch(1, source, batch);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("bound to ingest lane"), std::string::npos)
      << st.ToString();
  EXPECT_TRUE(exec->Finish().ok());
}

TEST(MultiLaneIngestTest, PushAfterFinishFailsLoudly) {
  // Shutdown ordering: lanes close BEFORE the shard rings, so every
  // acknowledged push is delivered and a push after Finish() gets a loud
  // FailedPrecondition instead of deadlocking or being dropped silently.
  ShardedExecutor::Options opts;
  opts.num_shards = 2;
  ExecGraph::NodeId source = 0, sink = 0;
  auto exec_or = ShardedExecutor::Create(
      opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext&) {
        source = g->AddSource("src");
        const auto pass = g->AddOperator(
            source, std::make_unique<FilterOperator>(
                        "pass", [](const Tuple&) { return true; }));
        sink = g->AddSink(pass, "out");
        return common::Status::OK();
      });
  ASSERT_TRUE(exec_or.ok());
  auto exec = exec_or.MoveValueUnsafe();
  TupleBatch batch;
  for (int i = 0; i < 25; ++i) batch.Append(KV(i, i % 5, 1.0));
  ASSERT_TRUE(exec->PushBatch(source, std::move(batch)).ok());
  ASSERT_TRUE(exec->Finish().ok());
  EXPECT_EQ(exec->sink_output(sink).size(), 25u);
  TupleBatch late;
  late.Append(KV(100, 1, 1.0));
  const auto st = exec->PushBatch(source, late);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), common::StatusCode::kFailedPrecondition)
      << st.ToString();
}

TEST(MultiLaneIngestTest, ConcurrentPushAndFinishNeverDeadlocks) {
  // A producer hammering a lane while Finish() runs must either succeed
  // (tuples delivered) or fail loudly; the executor must not hang. Every
  // tuple whose push reported OK before Finish() returned is accounted
  // for in the sink (no silent drop) — pushes racing the lane close may
  // fail, which is the loud path.
  ShardedExecutor::Options opts;
  opts.num_shards = 2;
  opts.queue_capacity = 4;
  ExecGraph::NodeId source = 0, sink = 0;
  auto exec_or = ShardedExecutor::Create(
      opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext&) {
        source = g->AddSource("src");
        const auto pass = g->AddOperator(
            source, std::make_unique<FilterOperator>(
                        "pass", [](const Tuple&) { return true; }));
        sink = g->AddSink(pass, "out");
        return common::Status::OK();
      });
  ASSERT_TRUE(exec_or.ok());
  auto exec = exec_or.MoveValueUnsafe();
  std::atomic<uint64_t> acknowledged{0};
  std::atomic<bool> saw_error{false};
  std::thread producer([&] {
    for (int i = 0; i < 100000; ++i) {
      TupleBatch b;
      b.Append(KV(i, i % 7, 1.0));
      if (exec->PushBatch(source, std::move(b)).ok()) {
        acknowledged.fetch_add(1);
      } else {
        saw_error.store(true);
        return;
      }
    }
  });
  // Give the producer a head start, then finish under it.
  ASSERT_TRUE(WaitUntil([&] { return acknowledged.load() >= 100; }))
      << "producer never got its head start";
  ASSERT_TRUE(exec->Finish().ok());
  producer.join();
  // Either the producer hit the loud FailedPrecondition, or (unlikely
  // scheduling) it finished all its pushes before Finish closed the
  // lanes; a silent drop would fail the accounting below either way.
  EXPECT_TRUE(saw_error.load() || acknowledged.load() == 100000u);
  // Every push acknowledged with OK was delivered: Finish waits out
  // in-flight pushes before the workers stop draining.
  EXPECT_EQ(exec->sink_output(sink).size(), acknowledged.load());
}

TEST(MultiLaneIngestTest, IngestCountersExposeBackpressure) {
  // A gated operator behind a depth-1 ring: the worker parks on a
  // condition variable (not a scheduler-granularity sleep, which a
  // single-core CI box may stretch or skip), the ring provably fills
  // behind it, the producer provably blocks, and the block time + peak
  // depth must surface in the source's appended metrics entry. The gate
  // opens only after the producer is observed stuck mid-push, so the
  // "blocked" code path runs deterministically. Two lanes (the producer
  // uses lane 0) keep the ring: one shard behind one lane runs inline.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();
  ShardedExecutor::Options opts;
  opts.num_shards = 1;
  opts.num_ingest_lanes = 2;
  opts.queue_capacity = 1;
  ExecGraph::NodeId source = 0;
  auto exec_or = ShardedExecutor::Create(
      opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext&) {
        source = g->AddSource("feed");
        const auto slow = g->AddOperator(
            source, std::make_unique<TapOperator>(
                        "slow", [gate](const Tuple&) {
                          std::unique_lock<std::mutex> lock(gate->mu);
                          gate->cv.wait(lock, [&] { return gate->open; });
                        }));
        g->AddSink(slow, "out");
        return common::Status::OK();
      });
  ASSERT_TRUE(exec_or.ok());
  auto exec = exec_or.MoveValueUnsafe();
  std::atomic<int> entered{0};
  std::atomic<int> completed{0};
  std::thread producer([&] {
    for (int i = 0; i < 64; ++i) {
      TupleBatch b;
      for (int j = 0; j < 4; ++j) b.Append(KV(i * 4 + j, j, 1.0));
      entered.fetch_add(1);
      ASSERT_TRUE(exec->PushBatch(source, std::move(b)).ok());
      completed.fetch_add(1);
    }
  });
  // The worker parks on batch 1; the depth-1 ring holds batch 2; some
  // later push has entered but cannot complete => the producer is inside
  // the blocking path right now.
  ASSERT_TRUE(WaitUntil([&] {
    return completed.load() >= 2 && entered.load() > completed.load();
  })) << "producer never hit backpressure";
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->open = true;
  }
  gate->cv.notify_all();
  producer.join();
  ASSERT_TRUE(exec->Finish().ok());
  const auto metrics = exec->MetricsSnapshot();
  bool found = false;
  for (const auto& m : metrics) {
    if (m.name != "feed") continue;
    found = true;
    EXPECT_EQ(m.metrics.tuples_in, 256u);
    EXPECT_EQ(m.metrics.batches_in, 64u);
    EXPECT_GE(m.metrics.queue_peak_depth, 1u);
    EXPECT_GT(m.metrics.producer_block_seconds, 0.0);
  }
  EXPECT_TRUE(found) << "no ingest entry for source 'feed'";
}

}  // namespace
}  // namespace stream
}  // namespace usp
