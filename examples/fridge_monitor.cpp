// Fridge monitor: ONE temperature feed, many standing subscriptions.
//
// The multiplexing scenario: a facility streams uncertain temperature
// readings (sensor noise -> Gaussian per reading) from many fridges, and
// every user registers a personal standing query over the SAME feed:
//
//   "alert me when P(avg temp of MY fridge > MY threshold) >= MY bar"
//
// Instead of compiling one plan per user, `CompileMultiplexed` builds ONE
// template plan — one source scan, one window/pane buffer, one aggregate
// per group — and dispatches each emitted group row through a predicate
// index (exact-key hash buckets, an interval tree for key ranges,
// threshold-sorted prefix dispatch for the probability conditions), so
// adding a subscriber costs an index entry, not a plan.
//
// The walkthrough registers per-user thresholds, a range-scoped
// technician, and an everything auditor; streams two windows of
// readings; unsubscribes a user mid-stream; and prints who got alerted
// and why.
//
// Build & run:  ./build/examples/fridge_monitor

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "query/planner.h"
#include "query/query.h"
#include "query/subscription.h"
#include "stats/gaussian.h"
#include "stream/batch.h"
#include "stream/tuple.h"
#include "uncertain/sum_strategies.h"

using usp::query::Query;
using usp::query::Subscription;
using usp::query::SubscriptionSet;
using usp::stats::DistributionPtr;
using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;

namespace {

Tuple Reading(int64_t ts_us, int64_t fridge, double mean_f, double sd_f) {
  Tuple t(ts_us, {Value(fridge),
                  Value(DistributionPtr(
                      std::make_shared<usp::stats::Gaussian>(mean_f, sd_f)))});
  t.InitBaseLineage();
  return t;
}

}  // namespace

int main() {
  printf("== fridge monitor: per-user alerts over one shared feed ==\n\n");

  // --- 1. one standing-query TEMPLATE -----------------------------------
  // (fridge_id, temp_pdf) readings; 5-second tumbling windows; AVG temp
  // per fridge. Subscriptions below differ only in scope + threshold, so
  // they all ride this single plan.
  Query feed = Query::From("temps", 2)
                   .Window(usp::stream::WindowSpec::Tumbling(5'000'000))
                   .GroupBy(0)
                   .Avg("avg_temp", 1, usp::uncertain::SumStrategyKind::kClt)
                   .Sink("alerts");

  // --- 2. subscriptions: scope + personal threshold ---------------------
  // Each OnMatch callback fires once per (window, group) row that passes
  // that subscriber's condition — the alert channel. Callbacks run on the
  // shard workers as windows close, several shards at once, so the demo
  // collects the alert lines and prints them in (window, fridge,
  // subscriber) order: the output does not depend on thread timing.
  auto set = std::make_shared<SubscriptionSet>();
  std::map<usp::query::SubscriptionSet::Id, std::string> who;
  std::mutex alerts_mu;
  std::vector<std::tuple<int64_t, std::string, int, std::string>> alerts;
  const auto alert = [&](const char* name, int rank) {
    return [&alerts_mu, &alerts, name, rank](const Tuple& row) {
      const auto& avg = *row.value(1).AsDistribution();
      // Group keys come out canonicalised as strings ("3" for fridge 3).
      char line[128];
      snprintf(line, sizeof(line),
               "  ALERT %-10s fridge %s window@%lldus: avg %.1fF sd %.2f",
               name, row.value(0).AsString().c_str(),
               static_cast<long long>(row.timestamp()), avg.Mean(),
               avg.Stddev());
      std::lock_guard<std::mutex> lock(alerts_mu);
      alerts.emplace_back(row.timestamp(), row.value(0).AsString(), rank,
                          line);
    };
  };

  // Alice owns fridge 3 and wants to know when it is PROBABLY above 40F.
  const auto alice = set->Subscribe(Subscription::KeyEquals(Value(int64_t{3}))
                                        .Where(0, 40.0, 0.9)
                                        .OnMatch(alert("alice", 0)));
  who[alice] = "alice";
  // Bob also watches fridge 3 but is paranoid: 38F at 60% confidence.
  const auto bob = set->Subscribe(Subscription::KeyEquals(Value(int64_t{3}))
                                      .Where(0, 38.0, 0.6)
                                      .OnMatch(alert("bob", 1)));
  who[bob] = "bob";
  // The technician patrols fridges 0..9 for hard failures (50F, 95%).
  set->Subscribe(Subscription::KeyInRange(0, 9)
                     .Where(0, 50.0, 0.95)
                     .OnMatch(alert("technician", 2)));
  // The auditor records every closed window of every fridge, no filter.
  set->Subscribe(Subscription::AllGroups().OnMatch(alert("auditor", 3)));
  printf("registered %zu subscriptions\n", set->size());

  // --- 3. compile ONCE, observe the sharing decisions -------------------
  auto mq_or = feed.CompileMultiplexed(set);
  if (!mq_or.ok()) {
    fprintf(stderr, "compile failed: %s\n", mq_or.status().ToString().c_str());
    return 1;
  }
  auto mq = mq_or.MoveValueUnsafe();
  printf("planner decisions: %s\n\n", mq->summary().ToString().c_str());

  // --- 4. window 1: fridge 3 drifts warm --------------------------------
  printf("window 1 (0-5s): fridge 3 drifting to ~41F\n");
  TupleBatch w1;
  w1.Append(Reading(500'000, 3, 39.0, 1.0));
  w1.Append(Reading(1'500'000, 3, 41.0, 1.0));
  w1.Append(Reading(2'500'000, 3, 43.0, 1.0));
  w1.Append(Reading(1'000'000, 7, 36.5, 0.5));  // healthy fridge
  (void)mq->PushBatch(mq->source("temps"), std::move(w1));

  // --- 5. alice unsubscribes; shared state is refcounted ----------------
  // Bob still watches fridge 3, so the exact-key bucket stays live; only
  // when the LAST watcher of a key leaves is its index state released.
  // Alice leaves before the reading that closes window 1 arrives, so she
  // hears about neither window.
  mq->subscriptions().Unsubscribe(alice);
  printf("\nalice unsubscribed (%zu remain); window 2 (5-10s): still warm\n",
         mq->subscriptions().size());
  TupleBatch w2;
  w2.Append(Reading(5'500'000, 3, 44.0, 1.0));  // closes window 1
  (void)mq->PushBatch(mq->source("temps"), std::move(w2));

  TupleBatch w3;
  w3.Append(Reading(6'500'000, 3, 45.0, 1.0));
  w3.Append(Reading(7'000'000, 7, 36.0, 0.5));
  (void)mq->PushBatch(mq->source("temps"), std::move(w3));
  (void)mq->Finish();  // closes window 2: bob + technician + auditor only
  std::sort(alerts.begin(), alerts.end());
  for (const auto& a : alerts) printf("%s\n", std::get<3>(a).c_str());

  // --- 6. the sink view -------------------------------------------------
  // Every dispatched row also lands in the sink, tagged with the matching
  // subscription id as a trailing column — the audit trail behind the
  // callbacks above.
  printf("\nsink rows (fridge, avg, subscription):\n");
  for (const Tuple& row : mq->Result("alerts")) {
    const auto id = static_cast<usp::query::SubscriptionSet::Id>(
        row.value(row.num_values() - 1).AsInt());
    const auto it = who.find(id);
    printf("  ts %-8lld fridge %s avg %.1fF -> sub %llu (%s)\n",
           static_cast<long long>(row.timestamp()),
           row.value(0).AsString().c_str(),
           row.value(1).AsDistribution()->Mean(),
           static_cast<unsigned long long>(id),
           it == who.end() ? "other" : it->second.c_str());
  }
  return 0;
}
