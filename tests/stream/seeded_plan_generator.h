// Seeded random plan generators for the differential test harness
// (differential_test.cc): Q1-style windowed aggregates (GeneratePlan) and
// keyed sliding-window joins (GenerateJoinPlan). One uint64 seed
// deterministically fixes a whole experiment — plan shape, batch splits,
// feed contents, optionally bounded timestamp disorder and keys of mixed
// Value kinds — so any failing configuration is replayable from the seed
// the test prints. Kept header-only and test-local: this is an input
// generator, not library surface.

#ifndef USP_TESTS_STREAM_SEEDED_PLAN_GENERATOR_H_
#define USP_TESTS_STREAM_SEEDED_PLAN_GENERATOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/query.h"
#include "stats/gaussian.h"
#include "stream/batch.h"
#include "stream/join.h"
#include "stream/window.h"

namespace usp {
namespace stream {
namespace gen {

/// The integer a generated key stands for, whatever kind carries it (an
/// int, an integral double, or its decimal string).
inline int64_t KeyNumber(const Value& key) {
  if (key.is_int()) return key.AsInt();
  if (key.is_double()) return static_cast<int64_t>(key.AsDouble());
  return std::stoll(key.AsString());
}

/// The optional filter's predicate, shared by the built query and the
/// differential test's hand-wired reference plan.
inline bool KeepTuple(const Tuple& t) { return KeyNumber(t.value(0)) % 3 != 1; }

struct GeneratedPlan {
  uint64_t seed = 0;
  WindowSpec window{100, 100};
  bool has_filter = false;
  bool with_avg = false;
  bool with_count = false;
  size_t batch_size = 64;
  size_t num_keys = 4;
  size_t num_tuples = 400;
  /// Max event-time step between consecutive tuples.
  int64_t max_ts_step = 50;
  /// Bounded disorder: each tuple's timestamp is pulled back by up to
  /// this much from its in-order position, so it trails the max timestamp
  /// ingested before it by at most this much. 0 = in order.
  int64_t max_disorder_us = 0;
  /// Each key k arrives as int k, double k.0 or string "k", drawn per
  /// tuple: one group by CanonicalKeyString, three Value kinds. Off = int
  /// keys only.
  bool mixed_key_kinds = false;

  std::string ToString() const {
    return "seed=" + std::to_string(seed) + " window=" +
           std::to_string(window.size_us) + "/" +
           std::to_string(window.slide_us) +
           (has_filter ? " filter" : "") + (with_avg ? " avg" : "") +
           (with_count ? " count" : "") + " batch=" +
           std::to_string(batch_size) + " keys=" +
           std::to_string(num_keys) + " tuples=" +
           std::to_string(num_tuples) +
           (max_disorder_us > 0
                ? " disorder=" + std::to_string(max_disorder_us)
                : "") +
           (mixed_key_kinds ? " mixed_key_kinds" : "");
  }

  /// The Q1 shape: From -> [Filter] -> Window -> GroupBy(key) -> SUM
  /// [AVG] [COUNT] -> Sink. CLT sums keep the math deterministic on the
  /// compiled plan and on the reference operator.
  query::Query Build() const {
    query::Query q = query::Query::From("src", 2);
    if (has_filter) {
      q = q.Filter("keep", KeepTuple, /*reads_attrs=*/{0});
    }
    q = q.Window(window).GroupBy(0).Sum(
        "total", 1, uncertain::SumStrategyKind::kClt);
    if (with_avg) {
      q = q.Avg("mean", 1, uncertain::SumStrategyKind::kClt);
    }
    if (with_count) {
      q = q.Count("n");
    }
    return q.Sink("out");
  }

  /// Seed-deterministic feed: timestamps non-decreasing with random
  /// steps (several per slide, so windows span many batches) unless
  /// max_disorder_us pulls them back, keys uniform, weights Gaussian with
  /// seeded parameters.
  std::vector<TupleBatch> MakeInput() const {
    common::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<TupleBatch> batches;
    TupleBatch batch;
    int64_t ts = 0;
    for (size_t i = 0; i < num_tuples; ++i) {
      ts += static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(max_ts_step) + 1));
      int64_t tuple_ts = ts;
      if (max_disorder_us > 0) {
        tuple_ts -= static_cast<int64_t>(
            rng.UniformInt(static_cast<uint64_t>(max_disorder_us) + 1));
      }
      const int64_t k = static_cast<int64_t>(rng.UniformInt(num_keys));
      Value key(k);
      if (mixed_key_kinds) {
        switch (rng.UniformInt(3)) {
          case 1:
            key = Value(static_cast<double>(k));
            break;
          case 2:
            key = Value(std::to_string(k));
            break;
          default:
            break;
        }
      }
      Tuple t(tuple_ts,
              {std::move(key),
               Value(stats::DistributionPtr(std::make_shared<stats::Gaussian>(
                   rng.Uniform(-10.0, 30.0), 0.25 + rng.Uniform())))});
      t.InitBaseLineage();
      batch.Append(std::move(t));
      if (batch.size() == batch_size) {
        batches.push_back(std::move(batch));
        batch = TupleBatch();
      }
    }
    if (!batch.empty()) batches.push_back(std::move(batch));
    return batches;
  }
};

/// Derives one experiment configuration from a seed. Dimension choices
/// follow the differential harness's brief: window size/slide incl.
/// tumbling and overlap 2..5, optional pushdown-eligible filter, batch
/// sizes from per-tuple trickle to bulk, small/large key spaces.
inline GeneratedPlan GeneratePlan(uint64_t seed) {
  common::Rng rng(seed);
  GeneratedPlan plan;
  plan.seed = seed;
  const int64_t slide = 10 + static_cast<int64_t>(rng.UniformInt(240));
  const int64_t overlap = 1 + static_cast<int64_t>(rng.UniformInt(5));
  plan.window = overlap == 1 ? WindowSpec::Tumbling(slide)
                             : WindowSpec::Sliding(slide * overlap, slide);
  plan.has_filter = rng.Bernoulli(0.5);
  plan.with_avg = rng.Bernoulli(0.4);
  plan.with_count = rng.Bernoulli(0.4);
  const size_t batch_choices[] = {1, 7, 64, 256};
  plan.batch_size = batch_choices[rng.UniformInt(4)];
  plan.num_keys = 1 + rng.UniformInt(8);
  plan.num_tuples = 200 + rng.UniformInt(400);
  plan.max_ts_step = 1 + static_cast<int64_t>(rng.UniformInt(
                             static_cast<uint64_t>(slide)));
  return plan;
}

/// GeneratePlan(seed) with bounded disorder of 1 to 2x the window size
/// (drawn from a separate stream, so the plan shape matches the in-order
/// plan of the same seed).
inline GeneratedPlan GenerateDisorderedPlan(uint64_t seed) {
  GeneratedPlan plan = GeneratePlan(seed);
  common::Rng rng(seed ^ 0x5bd1e995ULL);
  const uint64_t size = static_cast<uint64_t>(plan.window.size_us);
  plan.max_disorder_us = 1 + static_cast<int64_t>(rng.UniformInt(2 * size));
  return plan;
}

/// GeneratePlan(seed) with keys of mixed Value kinds (the kind is drawn
/// per tuple from the feed's stream, after the key, so the plan shape
/// matches the int-keyed plan of the same seed).
inline GeneratedPlan GenerateMixedKeyPlan(uint64_t seed) {
  GeneratedPlan plan = GeneratePlan(seed);
  plan.mixed_key_kinds = true;
  return plan;
}

/// Equality on attribute 0 (the key), joined with ConcatJoinedTuple — so a
/// joined row keeps the left key at attribute 0 and can feed a second join.
inline std::optional<Tuple> KeyEqualMatch(const Tuple& l, const Tuple& r) {
  if (l.value(0).AsInt() != r.value(0).AsInt()) return std::nullopt;
  return ConcatJoinedTuple(l, r);
}

/// A keyed sliding-window join, a JOIN b, or (a JOIN b) JOIN c when
/// `second_join` is set. Every source tuple is (key:int, tag:int) with a
/// tag unique across sources, so a joined row names its input tuples.
struct GeneratedJoinPlan {
  uint64_t seed = 0;
  int64_t range_us = 100;
  bool second_join = false;
  size_t num_keys = 4;
  /// Tuples per source.
  size_t num_tuples = 200;
  /// Max event-time step between a source's consecutive tuples.
  int64_t max_ts_step = 50;
  /// Each tuple is pulled back by up to this much from its in-order
  /// position, so it trails its source's newest tuple by at most this.
  int64_t max_disorder_us = 0;
  /// Push batches hold 1..max_batch tuples of one source.
  size_t max_batch = 16;

  size_t num_sources() const { return second_join ? 3 : 2; }
  static std::string SourceName(size_t source) {
    return std::string(1, static_cast<char>('a' + source));
  }

  std::string ToString() const {
    return "seed=" + std::to_string(seed) + " range=" +
           std::to_string(range_us) + (second_join ? " joins=2" : " joins=1") +
           " keys=" + std::to_string(num_keys) + " tuples=" +
           std::to_string(num_tuples) + " step=" +
           std::to_string(max_ts_step) + " disorder=" +
           std::to_string(max_disorder_us) + " max_batch=" +
           std::to_string(max_batch);
  }

  query::Query Build() const {
    query::Query q = query::Query::From("a", 2).Join(
        query::Query::From("b", 2), range_us, KeyEqualMatch, "j1");
    if (second_join) {
      q = q.Join(query::Query::From("c", 2), range_us, KeyEqualMatch, "j2");
    }
    return q.Sink("out");
  }

  /// One push: a batch of one source's tuples.
  struct Push {
    size_t source = 0;
    TupleBatch batch;
  };

  /// Seed-deterministic feed: each source's tuples in bounded disorder,
  /// split into random-sized batches, and the batches of different
  /// sources interleaved at random (each source's own order kept).
  std::vector<Push> MakePushes() const {
    common::Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 7);
    std::vector<std::vector<Push>> per_source(num_sources());
    for (size_t s = 0; s < num_sources(); ++s) {
      int64_t ts = 0;
      Push push;
      push.source = s;
      size_t batch_size = 1 + rng.UniformInt(max_batch);
      for (size_t i = 0; i < num_tuples; ++i) {
        ts += static_cast<int64_t>(
            rng.UniformInt(static_cast<uint64_t>(max_ts_step) + 1));
        const int64_t tuple_ts =
            ts - static_cast<int64_t>(rng.UniformInt(
                     static_cast<uint64_t>(max_disorder_us) + 1));
        Tuple t(tuple_ts,
                {Value(static_cast<int64_t>(rng.UniformInt(num_keys))),
                 Value(static_cast<int64_t>(s * num_tuples + i))});
        t.InitBaseLineage();
        push.batch.Append(std::move(t));
        if (push.batch.size() == batch_size) {
          per_source[s].push_back(std::move(push));
          push = Push();
          push.source = s;
          batch_size = 1 + rng.UniformInt(max_batch);
        }
      }
      if (!push.batch.empty()) per_source[s].push_back(std::move(push));
    }
    std::vector<Push> pushes;
    std::vector<size_t> next(num_sources(), 0);
    for (;;) {
      std::vector<size_t> open;
      for (size_t s = 0; s < num_sources(); ++s) {
        if (next[s] < per_source[s].size()) open.push_back(s);
      }
      if (open.empty()) break;
      const size_t s = open[rng.UniformInt(open.size())];
      pushes.push_back(std::move(per_source[s][next[s]++]));
    }
    return pushes;
  }
};

/// Derives one join experiment from a seed, on its own random stream (the
/// windowed-aggregate generators above draw exactly what they did before).
/// About half the seeds stack a second join on the first.
inline GeneratedJoinPlan GenerateJoinPlan(uint64_t seed) {
  common::Rng rng(seed ^ 0x2545f4914f6cdd1dULL);
  GeneratedJoinPlan plan;
  plan.seed = seed;
  plan.range_us = 20 + static_cast<int64_t>(rng.UniformInt(200));
  plan.second_join = rng.Bernoulli(0.5);
  // Steps of range/4..range and at least two keys keep a tuple's
  // matches per join to a handful, so the stacked join stays small.
  plan.num_keys = 2 + rng.UniformInt(5);
  plan.num_tuples = 60 + rng.UniformInt(120);
  plan.max_ts_step =
      plan.range_us / 4 + 1 +
      static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(plan.range_us * 3 / 4)));
  plan.max_disorder_us = rng.Bernoulli(0.25)
                             ? 0
                             : static_cast<int64_t>(rng.UniformInt(
                                   static_cast<uint64_t>(3 * plan.range_us)));
  plan.max_batch = 1 + rng.UniformInt(32);
  return plan;
}

}  // namespace gen
}  // namespace stream
}  // namespace usp

#endif  // USP_TESTS_STREAM_SEEDED_PLAN_GENERATOR_H_
