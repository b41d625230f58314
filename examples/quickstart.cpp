// Quickstart: the core abstractions in ~5 minutes.
//
//  1. Build tuple-level distributions (the pdf every uncertain attribute
//     carries).
//  2. Declare a windowed SUM as a logical query plan and let the planner
//     compile it, once per aggregation strategy from the paper's Table 2.
//  3. Register standing subscriptions (per-subscriber key + threshold)
//     and serve them all from ONE multiplexed plan.
//  4. Read out full result pdfs, confidence regions, and predicate
//     probabilities.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "query/planner.h"
#include "query/query.h"
#include "query/subscription.h"
#include "stats/gaussian.h"
#include "stats/gaussian_mixture.h"
#include "uncertain/sum_strategies.h"

using usp::stats::DistributionPtr;
using usp::stream::Tuple;
using usp::stream::Value;

int main() {
  printf("== uncertain stream processing: quickstart ==\n\n");

  // --- 1. tuple-level distributions -------------------------------------
  // A sensor reports a weight of ~50 lb with +-2 lb of calibration noise:
  DistributionPtr w1 = std::make_shared<usp::stats::Gaussian>(50.0, 2.0);
  // Another reading is ambiguous between two racks (bimodal):
  DistributionPtr w2 = std::make_shared<usp::stats::GaussianMixture>(
      usp::stats::GaussianMixture::Make({{0.7, 80.0, 3.0}, {0.3, 95.0, 3.0}})
          .MoveValueUnsafe());
  printf("w1 = %s\n", w1->ToString().c_str());
  printf("w2 = %s (mean %.1f)\n\n", w2->ToString().c_str(), w2->Mean());

  // --- 2. windowed SUM under uncertainty --------------------------------
  //
  // Building a query, step by step:
  //
  //   a. `Query::From("readings", 2)` names the external source and
  //      declares its tuple arity (zone:string, weight:pdf) — the arity is
  //      optional, but with it the compiler of the plan (the planner) can
  //      reject bad attribute references before anything runs.
  //   b. `.Window(...)` opens a windowed aggregate stage. Tumbling(5 s)
  //      is Q1's `[Range 5 seconds]`; Sliding(size, slide) declares
  //      overlap, and the PLANNER — not you — then picks the
  //      pane-incremental operator automatically.
  //   c. `.GroupBy(0)` groups by attribute 0 (the zone). Declaring the
  //      key by attribute also lets the planner derive the ingest
  //      partition key if you later compile with num_shards > 1.
  //   d. `.Sum("total", 1, kind)` appends an aggregate column: SUM over
  //      attribute 1 using one of Table 2's algorithms. (`.Having(...)`
  //      would filter emitted groups, see the fire-code example.)
  //   e. `.Sink("totals")` terminates the plan; `.Compile()` validates it
  //      and materialises the physical runtime. The planner auto-tunes
  //      the physical knobs by default: the shard count comes from the
  //      machine's cores (falling back to one shard when no partition
  //      key is derivable) and each source gets its own ingest lane on
  //      sharded plans. Ingest forwards your batches as they are: the
  //      size you push is the unit each shard processes, so push in
  //      chunks for throughput or tuple by tuple for the lowest latency.
  //      Every decision is visible in `summary()` (printed below for the
  //      first plan).
  //
  //      When to override in PlannerOptions: pin `num_shards` when you
  //      need machine-independent results/benchmarks (num_shards = 1
  //      with one ingest lane runs the plan inline on your thread: each
  //      PushBatch emits its results before returning, in exact emission
  //      order) or when the query shares the host with other work.
  //      Explicit values always win over auto-tuning.
  //
  //      Watermark knob (event-time progress): every ingested batch
  //      carries its source's promise "no future tuple below T"; the
  //      runtime forwards that signal along the plan's edges (fan-ins
  //      take the min of their inputs), closes windows by it, and
  //      expires join buffers by it — so a SILENT sensor no longer
  //      stalls windows or grows the peer side of a join (push progress
  //      explicitly with `CompiledQuery::PushWatermark` during an
  //      outage). Sharded plans also broadcast it to every shard, a
  //      quarter of the smallest window slide / join range apart.
  //      * `watermark_lateness_us`: T is the source's max ingested
  //        timestamp minus this, so a window still accepts tuples up to
  //        that far behind the newest one. A tuple that arrives after
  //        all of its windows closed — or a join tuple below its
  //        side's watermark — is dropped and counted as `late_dropped`
  //        in MetricsSnapshot(). 0 (the default) closes each window as
  //        soon as data passes it.
  //      The decisions appear in summary() with every other knob, and
  //      per-operator progress/memory is observable as `low_watermark` /
  //      `buffered_bytes` in MetricsSnapshot().
  //
  //      Hardware saturation needs no knob: the CF/CDF math dispatches
  //      to SIMD kernels picked by cpuid at startup (AVX2 when
  //      available, scalar otherwise). Every tier is bitwise-identical,
  //      so this is invisible except in speed; set env `USP_SIMD=scalar`
  //      to force the fallback.
  //
  // Tuples: (zone, weight). One 5-second tumbling window, grouped by zone.
  const auto make_tuple = [](int64_t ts, const char* zone,
                             DistributionPtr w) {
    Tuple t(ts, {Value(std::string(zone)), Value(std::move(w))});
    t.InitBaseLineage();
    return t;
  };

  bool printed_summary = false;
  for (const auto kind :
       {usp::uncertain::SumStrategyKind::kCfApprox,
        usp::uncertain::SumStrategyKind::kCfInversion,
        usp::uncertain::SumStrategyKind::kHistogram,
        usp::uncertain::SumStrategyKind::kClt}) {
    auto plan = usp::query::Query::From("readings", 2)
                    .Window(usp::stream::WindowSpec::Tumbling(5'000'000))
                    .GroupBy(0)
                    .Sum("total", 1, kind)
                    .Sink("totals");
    auto compiled_or = plan.Compile();
    if (!compiled_or.ok()) {
      fprintf(stderr, "compile failed: %s\n",
              compiled_or.status().ToString().c_str());
      return 1;
    }
    auto compiled = compiled_or.MoveValueUnsafe();
    if (!printed_summary) {
      printf("planner decisions: %s\n\n",
             compiled->summary().ToString().c_str());
      printed_summary = true;
    }

    usp::stream::TupleBatch batch;
    batch.Append(make_tuple(1'000'000, "A", w1));
    batch.Append(make_tuple(2'000'000, "A", w2));
    batch.Append(make_tuple(
        3'000'000, "B", std::make_shared<usp::stats::Gaussian>(120.0, 5.0)));
    (void)compiled->PushBatch(compiled->source("readings"), std::move(batch));
    (void)compiled->Finish();

    printf("strategy %-14s ->",
           usp::uncertain::SumStrategyKindName(kind));
    for (const Tuple& t : compiled->Result("totals")) {
      const auto& dist = *t.value(1).AsDistribution();
      printf("  zone %s: mean %.1f sd %.2f |", t.value(0).AsString().c_str(),
             dist.Mean(), dist.Stddev());
    }
    printf("\n");
  }

  // --- 3. standing subscriptions (one plan, many subscribers) -----------
  //
  // When MANY consumers want the same query shape with personal
  // constants — different group keys, thresholds, confidences — do NOT
  // compile one plan each. Register them in a `SubscriptionSet` and use
  // `CompileMultiplexed`: one source scan, one window buffer, one
  // aggregate per group, and a predicate index dispatching each emitted
  // group row to exactly the subscriptions it satisfies. Each sink row
  // is tagged with the matching subscription id; `OnMatch` callbacks are
  // the push-style alert channel. See examples/fridge_monitor.cpp for
  // the full walkthrough and bench_multiplex for the scaling numbers
  // (one shared plan holds 1M registered subscriptions).
  {
    auto subs = std::make_shared<usp::query::SubscriptionSet>();
    // Zone A's owner: "P(total > 120 lb) >= 0.9" over MY zone only.
    subs->Subscribe(
        usp::query::Subscription::KeyEquals(Value(std::string("A")))
            .Where(/*agg_column=*/0, /*threshold=*/120.0,
                   /*min_confidence=*/0.9));
    // A dashboard that records every zone's window, unconditionally.
    subs->Subscribe(usp::query::Subscription::AllGroups());
    auto mq_or = usp::query::Query::From("readings", 2)
                     .Window(usp::stream::WindowSpec::Tumbling(5'000'000))
                     .GroupBy(0)
                     .Sum("total", 1, usp::uncertain::SumStrategyKind::kClt)
                     .Sink("alerts")
                     .CompileMultiplexed(subs);
    if (!mq_or.ok()) {
      fprintf(stderr, "multiplexed compile failed: %s\n",
              mq_or.status().ToString().c_str());
      return 1;
    }
    auto mq = mq_or.MoveValueUnsafe();
    usp::stream::TupleBatch batch;
    batch.Append(make_tuple(1'000'000, "A", w1));
    batch.Append(make_tuple(2'000'000, "A", w2));
    batch.Append(make_tuple(
        3'000'000, "B", std::make_shared<usp::stats::Gaussian>(120.0, 5.0)));
    (void)mq->PushBatch(mq->source("readings"), std::move(batch));
    (void)mq->Finish();
    printf("\nmultiplexed: %s\n", mq->summary().ToString().c_str());
    for (const Tuple& t : mq->Result("alerts")) {
      printf("  zone %s total %.1f -> subscription %lld\n",
             t.value(0).AsString().c_str(),
             t.value(1).AsDistribution()->Mean(),
             static_cast<long long>(t.value(t.num_values() - 1).AsInt()));
    }
  }

  // --- 4. result quality ------------------------------------------------
  usp::uncertain::CfApproxSum approx;
  auto total = approx.SumOf({w1.get(), w2.get()});
  if (!total.ok()) {
    fprintf(stderr, "aggregation failed: %s\n",
            total.status().ToString().c_str());
    return 1;
  }
  const auto& dist = *total.value();
  const auto region = dist.ConfidenceRegion(0.9);
  printf("\nzone A total: %s\n", dist.ToString().c_str());
  printf("90%% confidence region: [%.1f, %.1f] lb\n", region.lo, region.hi);
  printf("P(total > 140 lb) = %.3f\n", 1.0 - dist.Cdf(140.0));
  printf("P(total > 120 lb) = %.3f\n", 1.0 - dist.Cdf(120.0));
  return 0;
}
