// End-to-end and per-layer benchmark: command line and measurement loop.
//
//   perfbench --workload <q1_fire|cfinv_sliding|alerts_100k|rfid_q2>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//             [--span-out <file>]
//
// A run alternates two measured phases over seeded inputs:
//   closed loop  fixed-size reps of closed_events() events pushed as fast
//                as the engine accepts them (throughput, CPU per event);
//   open loop    the workload's constant offered rate from one generator
//                thread on a 1 ms tick (result latency).
// Bursts of set-up-only builds before every rep give the set-up samples.
// Every phase's results are checked against a reference computed outside
// the engine; any failure makes the run report correct=false.
//
// --trace 1 reports per-layer metrics instead: it repeats the closed loop
// untraced and traced (the difference is the tracing overhead), runs the
// open loop traced, and writes the spans to --span-out.
//
// Naming convention the per-layer roles rely on: sources start with
// "src_", sinks with "sink_", joins with "join_"; aggregates are named by
// the planner (PlanSummary::aggregates) and dispatch nodes end in
// "_dispatch". Every other node is a map or filter.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness.h"

namespace perfbench {
namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Operator metrics folded into the roles the per-layer metrics name.
struct RoleMetrics {
  double agg_busy = 0, join_busy = 0, dispatch_busy = 0, map_busy = 0;
  double agg_in = 0, agg_out = 0, join_in = 0, join_out = 0;
  double dispatch_out = 0;
  double block_s = 0, queue_peak = 0, buffered = 0;
  double cache_hits = 0, cache_misses = 0;
  double busy_total = 0;
};

RoleMetrics FoldMetrics(const std::vector<usp::stream::NodeMetrics>& nodes,
                        const usp::query::PlanSummary& summary) {
  RoleMetrics r;
  for (const auto& n : nodes) {
    const auto& m = n.metrics;
    r.buffered += static_cast<double>(m.buffered_bytes);
    r.cache_hits += static_cast<double>(m.grid_cache_hits);
    r.cache_misses += static_cast<double>(m.grid_cache_misses);
    if (StartsWith(n.name, "src_")) {
      r.block_s += m.producer_block_seconds;
      r.queue_peak = std::max(r.queue_peak, double(m.queue_peak_depth));
      continue;
    }
    if (StartsWith(n.name, "sink_")) continue;
    r.busy_total += m.processing_seconds;
    bool is_agg = false;
    for (const auto& a : summary.aggregates) is_agg |= a.node_name == n.name;
    if (is_agg) {
      r.agg_busy += m.processing_seconds;
      r.agg_in += double(m.tuples_in);
      r.agg_out += double(m.tuples_out);
    } else if (EndsWith(n.name, "_dispatch")) {
      r.dispatch_busy += m.processing_seconds;
      r.dispatch_out += double(m.tuples_out);
    } else if (StartsWith(n.name, "join_")) {
      r.join_busy += m.processing_seconds;
      r.join_in += double(m.tuples_in);
      r.join_out += double(m.tuples_out);
    } else {
      r.map_busy += m.processing_seconds;
    }
  }
  return r;
}

struct ClosedRep {
  double throughput_eps = 0;
  double cpu_us_per_event = 0;
  double wall_s = 0;
  RoleMetrics roles;
  double batch_target = 0;
  double sink_rows = 0;
  double cpu_s = 0;
  double steal_s = 0;  // host steal on the plan's vCPUs during the rep
  uint64_t trace_id = 0;
};

/// Set-up time of one burst of builds: its lower quartile. On sharded
/// plans set-up is bimodal (a worker thread starts on a running vCPU or
/// on one the hypervisor has to wake), and the share of slow builds moves
/// with the host's load from run to run, so a median or mean of single
/// builds jumps with it; the lower quartile tracks the set-up work
/// itself.
struct SetupSample {
  double seconds = 0;
  double disturbance = 0;  // host steal rate over the burst
};

/// Host steal rate over an interval: seconds the hypervisor ran other
/// guests on the given vCPUs (see HostStealSeconds) per second of wall
/// time.
double StealRate(unsigned cpus, double steal0, int64_t t0_ns) {
  const double wall = static_cast<double>(NowNs() - t0_ns) / 1e9;
  return wall > 0 ? (HostStealSeconds(cpus) - steal0) / wall : 0.0;
}

/// The reported set-up time: the median over the least-stolen quarter of
/// the bursts (at least one). Steal swings between none and a quarter of
/// the machine from one second to the next, and a burst that lost a vCPU
/// waits for its worker threads to start.
double SetupSeconds(std::vector<SetupSample> bursts) {
  std::stable_sort(bursts.begin(), bursts.end(),
                   [](const SetupSample& a, const SetupSample& b) {
                     return a.disturbance < b.disturbance;
                   });
  bursts.resize((bursts.size() + 3) / 4);
  std::vector<double> seconds;
  for (const SetupSample& b : bursts) seconds.push_back(b.seconds);
  return Median(seconds);
}

/// Seconds of a closed-loop rep with the host's steal taken off. A rep
/// whose vCPUs the hypervisor ran other guests on stalls the pipeline,
/// and how much of a run is stolen swings several-fold from run to run,
/// so a plain median moves with the host rather than with the program.
/// Across a run's reps the wall time grows linearly with the steal
/// seconds on the plan's vCPUs; the slope is fitted by Theil-Sen (median
/// of pairwise slopes, clamped at 0, robust to reps slowed by anything
/// else), taken off each rep, and the median of the adjusted times is
/// returned. With no spread in steal it is the plain median.
double StealFreeSeconds(const std::vector<double>& steal,
                        const std::vector<double>& seconds) {
  // Steal is counted in clock ticks; pairs closer than one tick say
  // nothing about the slope.
  const double min_dx = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::vector<double> slopes;
  for (size_t i = 0; i < steal.size(); ++i) {
    for (size_t j = i + 1; j < steal.size(); ++j) {
      const double dx = steal[j] - steal[i];
      if (std::fabs(dx) >= min_dx) {
        slopes.push_back((seconds[j] - seconds[i]) / dx);
      }
    }
  }
  const double slope = slopes.empty() ? 0.0 : std::max(0.0, Median(slopes));
  std::vector<double> adjusted;
  for (size_t i = 0; i < steal.size(); ++i) {
    adjusted.push_back(seconds[i] - slope * steal[i]);
  }
  return Median(adjusted);
}

struct OpenResult {
  std::vector<double> latency_ms;         // every observation
  std::vector<double> steady_latency_ms;  // observations after warm-up
  std::vector<double> late_ms;
  double buffered_max = 0;
  double wall_s = 0;
  uint64_t trace_id = 0;
};

class Runner {
 public:
  Runner(const Args& args, Workload* w, Report* report)
      : args_(args), w_(w), report_(report) {}

  /// Builds a plan over input 0 unless told otherwise; `seconds`
  /// (optional) receives the set-up time.
  std::unique_ptr<Engine> Build(size_t shards, LatencyRecorder* latency,
                                double* seconds = nullptr, size_t input = 0) {
    const int64_t t0 = NowNs();
    auto engine = w_->Setup(shards, latency, input);
    if (seconds != nullptr) *seconds = static_cast<double>(NowNs() - t0) / 1e9;
    report_->AddAttempts(1, engine.ok() ? 0 : 1);
    if (!engine.ok()) {
      report_->Fail(std::string("set-up failed: ") +
                    engine.status().ToString());
      return nullptr;
    }
    auto built = engine.MoveValueUnsafe();
    RecordPlan(shards, built->Summary());
    // A pinned plan runs on vCPUs 0..shards+lanes-1 (workers, then ingest
    // lanes); steal elsewhere does not slow it.
    const auto& summary = built->Summary();
    steal_cpus_ = summary.pin_threads ? static_cast<unsigned>(
                                            summary.num_shards +
                                            summary.num_ingest_lanes)
                                      : 0;
    return built;
  }

  void Verify(Engine& engine, size_t n, const char* phase, double* error) {
    const CheckResult c = w_->Verify(engine, n);
    report_->AddAttempts(c.checked, c.failed);
    if (c.failed != 0) {
      report_->Fail(std::string(phase) + ": " + std::to_string(c.failed) +
                    " of " + std::to_string(c.checked) +
                    " results wrong: " + c.detail);
    }
    if (error != nullptr) *error = c.error;
  }

  bool Check(const usp::common::Status& st, const char* what) {
    report_->AddAttempts(1, st.ok() ? 0 : 1);
    if (!st.ok()) report_->Fail(std::string(what) + ": " + st.ToString());
    return st.ok();
  }

  bool RunClosed(size_t shards, ClosedRep* rep) {
    rep->trace_id = ++trace_seq_;
    trace::SetTraceId(rep->trace_id);
    const size_t input = closed_runs_++ % w_->num_inputs();
    auto engine = Build(shards, nullptr, nullptr, input);
    if (!engine) return false;
    const size_t n = w_->closed_events();
    const size_t chunk = w_->push_chunk();
    const double cpu0 = ProcessCpuSeconds();
    const double steal0 = HostStealSeconds(steal_cpus_);
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; i += chunk) {
      if (!Check(engine->Push(i, std::min(n, i + chunk)), "PushBatch")) {
        return false;
      }
    }
    if (!Check(engine->Finish(), "Finish")) return false;
    rep->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    rep->cpu_s = ProcessCpuSeconds() - cpu0;
    rep->steal_s = HostStealSeconds(steal_cpus_) - steal0;
    rep->throughput_eps = static_cast<double>(n) / rep->wall_s;
    rep->cpu_us_per_event = rep->cpu_s * 1e6 / static_cast<double>(n);
    rep->roles = FoldMetrics(engine->Metrics(), engine->Summary());
    rep->batch_target = static_cast<double>(engine->BatchTarget());
    rep->sink_rows = static_cast<double>(engine->SinkRows());
    Verify(*engine, n, "closed loop", &input_error_[input]);
    return true;
  }

  bool RunOpen(size_t shards, double seconds, OpenResult* out,
               size_t input = 0) {
    out->trace_id = ++trace_seq_;
    trace::SetTraceId(out->trace_id);
    LatencyRecorder latency;
    auto engine = Build(shards, &latency, nullptr, input);
    if (!engine) return false;
    const size_t total =
        static_cast<size_t>(w_->offered_rate() * seconds);
    constexpr int64_t kTickNs = 1'000'000;
    const int64_t t0 = NowNs() + 2 * kTickNs;
    latency.Start(t0);
    size_t pushed = 0;
    int64_t tick = t0;
    int64_t last_sample = t0;
    // The first windows and the workers' first wake-ups are warm-up.
    const int64_t warm_end =
        t0 + std::min<int64_t>(500 * kTickNs,
                               static_cast<int64_t>(seconds * 0.25e9));
    while (pushed < total) {
      {
        trace::Span idle("gen.idle");
        SleepUntilNs(tick);
      }
      const int64_t wake = NowNs();
      out->late_ms.push_back(static_cast<double>(wake - tick) / 1e6);
      // Push what the schedule has made due by this tick, not by the
      // moment the generator woke: batch boundaries, and with them the
      // planner's periodic watermarks, then fall on the same event times
      // in every run instead of drifting with wake-up jitter.
      const int64_t elapsed_us = (tick - t0) / 1000;
      size_t due = pushed;
      while (due < total && w_->EventUs(due) <= elapsed_us) ++due;
      if (due > pushed) {
        if (!Check(engine->Push(pushed, due), "PushBatch")) return false;
        pushed = due;
      }
      if (args_.trace && wake - last_sample >= 100 * kTickNs) {
        trace::Span span("gen.sample");
        last_sample = wake;
        const RoleMetrics r =
            FoldMetrics(engine->Metrics(), engine->Summary());
        out->buffered_max = std::max(out->buffered_max, r.buffered);
      }
      // The schedule never accumulates debt: a stalled generator resumes
      // at the next tick boundary, and its events keep their due times.
      const int64_t now = NowNs();
      tick += kTickNs;
      if (tick <= now) tick = t0 + ((now - t0) / kTickNs + 1) * kTickNs;
    }
    // Results of windows that closed on data are still in flight; windows
    // the final Finish() flushes are not observed (their due time lies in
    // the future), so observation stops first.
    {
      trace::Span idle("gen.idle");
      SleepUntilNs(NowNs() + 30 * kTickNs);
    }
    latency.Stop();
    if (!Check(engine->Finish(), "Finish")) return false;
    out->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    for (const auto& [at_ns, ms] : latency.TakeSamples()) {
      out->latency_ms.push_back(ms);
      if (at_ns >= warm_end) out->steady_latency_ms.push_back(ms);
    }
    Verify(*engine, total, "open loop", nullptr);
    return true;
  }

  /// Closed-loop reps until `budget_s` of wall time is used (at least
  /// `min_reps`, and until every input has run). Returns false on any
  /// failure.
  bool ClosedReps(size_t shards, double budget_s, size_t min_reps,
                  size_t max_reps, std::vector<ClosedRep>* reps) {
    const int64_t start = NowNs();
    while (reps->size() < max_reps) {
      // Set-up-only builds between reps spread the set-up samples over
      // the whole run, like the other metrics.
      SetupBurst(shards);
      ClosedRep rep;
      if (!RunClosed(shards, &rep)) return false;
      reps->push_back(rep);
      const double used = static_cast<double>(NowNs() - start) / 1e9;
      if (reps->size() >= min_reps && used >= budget_s &&
          closed_runs_ >= w_->num_inputs()) {
        break;
      }
    }
    return true;
  }

  /// A burst of set-up-only builds (at least 2, then until 50 ms or 500
  /// builds): one set-up sample, the burst's lower quartile, with its
  /// steal rate.
  void SetupBurst(size_t shards) {
    constexpr double kBudgetS = 0.05;
    constexpr size_t kMaxBuilds = 500;
    trace::SetTraceId(++trace_seq_);
    const int64_t start = NowNs();
    const double steal0 = HostStealSeconds(steal_cpus_);
    std::vector<double> builds;
    while (builds.size() < kMaxBuilds) {
      double seconds = 0.0;
      auto engine = Build(shards, nullptr, &seconds);
      if (!engine) break;
      builds.push_back(seconds);
      Check(engine->Finish(), "Finish");
      if (builds.size() >= 2 &&
          static_cast<double>(NowNs() - start) / 1e9 >= kBudgetS) {
        break;
      }
    }
    if (!builds.empty()) {
      setups_.push_back(
          {Percentile(std::move(builds), 25.0),
           StealRate(steal_cpus_, steal0, start)});
    }
  }

  void RecordPlan(size_t shards, const usp::query::PlanSummary& s) {
    const std::string key = std::to_string(shards);
    for (const auto& p : plans_) {
      if (p.first == key) return;
    }
    plans_.push_back({key, s.ToString()});
  }


  const std::vector<SetupSample>& setups() const { return setups_; }

  /// Mean closed-loop result_error over the inputs run so far. Every rep
  /// of one input replays it exactly, so this is deterministic per seed
  /// once each input has run.
  double ResultError() const {
    double sum = 0.0;
    for (const auto& e : input_error_) sum += e.second;
    return input_error_.empty() ? 0.0 : sum / input_error_.size();
  }
  const std::vector<std::pair<std::string, std::string>>& plans() const {
    return plans_;
  }

 private:
  const Args& args_;
  Workload* w_;
  Report* report_;
  std::vector<SetupSample> setups_;
  unsigned steal_cpus_ = 0;  // vCPUs the last plan built runs on; 0 = all
  size_t closed_runs_ = 0;
  std::map<size_t, double> input_error_;
  std::vector<std::pair<std::string, std::string>> plans_;
  uint64_t trace_seq_ = 0;
};

template <typename F>
double MedianOf(const std::vector<ClosedRep>& reps, F f) {
  std::vector<double> v;
  for (const auto& r : reps) v.push_back(f(r));
  return Median(v);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <q1_fire|cfinv_sliding|"
               "alerts_100k|rfid_q2> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--span-out <file>]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--smoke") {
      a->smoke = true;
    } else if (k == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a->seconds = std::atoi(argv[++i]);
    } else if (k == "--trace" && has_value) {
      a->trace = std::atoi(argv[++i]) != 0;
    } else if (k == "--span-out" && has_value) {
      a->span_out = argv[++i];
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds >= 1 && a->seconds <= 60;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "q1_fire") return MakeQ1Fire(args);
  if (args.workload == "cfinv_sliding") return MakeCfInvSliding(args);
  if (args.workload == "alerts_100k") return MakeAlerts100k(args);
  if (args.workload == "rfid_q2") return MakeRfidQ2(args);
  return nullptr;
}

void AddMachineInfo(const Args& args, Report* report) {
  const MachineInfo m = DescribeMachine();
  std::ostringstream j;
  j << "{\"nproc\":" << m.nproc << ",\"cpu_model\":" << JsonString(m.cpu_model)
    << ",\"isa\":" << JsonString(m.isa)
    << ",\"build_type\":" << JsonString(m.build_type)
    << ",\"compiler\":" << JsonString(m.compiler) << "}";
  report->Info("machine", j.str());
  report->Info("workload", JsonString(args.workload));
  report->Info("seed", std::to_string(args.seed));
  report->Info("seconds", std::to_string(args.seconds));
  report->Info("trace", args.trace ? "1" : "0");
}

void AddPlans(const Runner& runner, Report* report) {
  std::ostringstream j;
  j << "{";
  for (size_t i = 0; i < runner.plans().size(); ++i) {
    j << (i ? "," : "") << JsonString(runner.plans()[i].first + "_shards")
      << ":" << JsonString(runner.plans()[i].second);
  }
  j << "}";
  report->Info("plans", j.str());
}

int RunEndToEnd(const Args& args, Workload* w, Report* report) {
  Runner runner(args, w, report);
  const double s = args.smoke ? 1.0 : static_cast<double>(args.seconds);
  const size_t shards = w->default_shards();
  // Closed and open phases alternate so that both sample the host over
  // the whole run: slow drifts in machine speed then shift every metric
  // alike instead of biasing whichever phase they happened to hit.
  const int rounds = args.smoke ? 1 : 3;
  std::vector<ClosedRep> reps;
  std::vector<double> latency_ms;
  // One unmeasured build first: it tells the runner which vCPUs the plan
  // occupies before any steal is read.
  bool ok = false;
  if (auto warm = runner.Build(shards, nullptr)) ok = runner.Check(warm->Finish(), "Finish");
  for (int round = 0; ok && round < rounds; ++round) {
    OpenResult open;
    ok = runner.ClosedReps(shards, 0.45 * s / rounds, args.smoke ? 1 : 2, 100,
                           &reps) &&
         runner.RunOpen(shards, 0.45 * s / rounds, &open,
                        round % w->num_inputs());
    latency_ms.insert(latency_ms.end(), open.steady_latency_ms.begin(),
                      open.steady_latency_ms.end());
  }
  AddPlans(runner, report);

  std::vector<double> steal, wall, cpu_s;
  for (const ClosedRep& r : reps) {
    steal.push_back(r.steal_s);
    wall.push_back(r.wall_s);
    cpu_s.push_back(r.cpu_s);
  }
  const double events = static_cast<double>(w->closed_events());
  report->Set("throughput_eps", events / StealFreeSeconds(steal, wall),
              "events/s");
  report->Set("cpu_us_per_event",
              StealFreeSeconds(steal, cpu_s) * 1e6 / events, "us/event");
  report->Set("result_latency_p50_ms", Percentile(latency_ms, 50.0), "ms");
  report->Set("peak_rss_mib", PeakRssMiB(), "MiB");
  report->Set("setup_s", SetupSeconds(runner.setups()), "s");
  report->Set("result_error", runner.ResultError(), "fraction");
  report->Info("closed_loop_reps", std::to_string(reps.size()));
  report->Info("latency_samples_used", std::to_string(latency_ms.size()));
  report->Info("setup_samples", std::to_string(runner.setups().size()));
  if (ok && latency_ms.empty()) {
    report->Fail("open loop produced no latency samples");
  }
  return 0;
}

int RunTraced(const Args& args, Workload* w, Report* report) {
  Runner runner(args, w, report);
  const double s = args.smoke ? 1.0 : static_cast<double>(args.seconds);
  const size_t shards = w->default_shards();
  const size_t min_reps = args.smoke ? 1 : 2;
  // Untraced baseline, then the same reps traced: the ratio is the
  // tracing overhead.
  std::vector<ClosedRep> plain, traced, single;
  bool ok = runner.ClosedReps(shards, 0.2 * s, min_reps, 10, &plain);
  trace::Enable(true);
  w->ResetLayers();
  ok = ok && runner.ClosedReps(shards, 0.2 * s, min_reps, 10, &traced);
  std::map<std::string, double> closed_extras;
  w->CollectLayers(&closed_extras);
  trace::Enable(false);
  // Single-threaded baseline of the same job (sharded workloads only).
  if (ok && shards > 1) {
    ok = runner.ClosedReps(1, 0.15 * s, min_reps, 10, &single);
  }
  trace::Enable(true);
  OpenResult open;
  ok = ok && runner.RunOpen(shards, 0.3 * s, &open);
  trace::Enable(false);
  AddPlans(runner, report);

  // Per-rep span totals on the traced closed-loop reps.
  std::vector<double> gen, push, finish, churn, transform, coverage;
  for (const ClosedRep& r : traced) {
    gen.push_back(trace::TotalSeconds("gen.build", r.trace_id));
    push.push_back(trace::TotalSeconds("stream.push", r.trace_id));
    finish.push_back(trace::TotalSeconds("stream.finish", r.trace_id));
    churn.push_back(trace::TotalSeconds("query.churn", r.trace_id));
    transform.push_back(trace::TotalSeconds("rfid.transform", r.trace_id));
    coverage.push_back((gen.back() + push.back() + finish.back() +
                        churn.back()) / r.wall_s);
  }
  {
    const uint64_t id = open.trace_id;
    const double covered = trace::TotalSeconds("gen.build", id) +
                           trace::TotalSeconds("stream.push", id) +
                           trace::TotalSeconds("stream.finish", id) +
                           trace::TotalSeconds("query.churn", id) +
                           trace::TotalSeconds("gen.idle", id) +
                           trace::TotalSeconds("gen.sample", id);
    if (open.wall_s > 0) coverage.push_back(covered / open.wall_s);
  }
  double worst_coverage = 1.0;
  for (double c : coverage) {
    if (std::fabs(c - 1.0) > std::fabs(worst_coverage - 1.0)) worst_coverage = c;
  }
  if (std::fabs(worst_coverage - 1.0) > 0.10) {
    report->Fail("trace consistency: generate+push+finish+churn+idle "
                 "spans cover " + std::to_string(worst_coverage) +
                 " of the producer's wall time (allowed 0.9..1.1)");
  }
  double busy_share = 0.0;
  for (const ClosedRep& r : traced) {
    busy_share = std::max(
        busy_share,
        r.roles.busy_total / (static_cast<double>(shards) * r.wall_s));
  }
  if (busy_share > 1.0) {
    report->Fail("trace consistency: operator busy time is " +
                 std::to_string(busy_share) + " x shards x wall");
  }

  const auto med = [&](auto f) { return MedianOf(traced, f); };
  const double events = static_cast<double>(w->closed_events());
  report->Set("query.compile_s", Median(trace::Durations("query.compile")),
              "s");
  report->Set("query.register_s", Median(trace::Durations("query.register")),
              "s");
  report->Set("query.churn_us_per_op", closed_extras["query.churn_us_per_op"],
              "us");
  report->Set("gen.build_s", Median(gen), "s");
  report->Set("stream.push_s", Median(push), "s");
  report->Set("stream.producer_block_s",
              med([](const ClosedRep& r) { return r.roles.block_s; }), "s");
  report->Set("stream.queue_peak_depth",
              med([](const ClosedRep& r) { return r.roles.queue_peak; }),
              "batches");
  report->Set("stream.batch_target",
              med([](const ClosedRep& r) { return r.batch_target; }),
              "tuples");
  report->Set("stream.finish_s", Median(finish), "s");
  report->Set("stream.sink_rows",
              med([](const ClosedRep& r) { return r.sink_rows; }), "count");
  report->Set("stream.buffered_bytes_max", open.buffered_max, "bytes");
  report->Set("stream.op.map.busy_s",
              med([](const ClosedRep& r) { return r.roles.map_busy; }), "s");
  report->Set("stream.op.agg.busy_s",
              med([](const ClosedRep& r) { return r.roles.agg_busy; }), "s");
  report->Set("stream.op.agg.tuples_in",
              med([](const ClosedRep& r) { return r.roles.agg_in; }), "count");
  report->Set("stream.op.agg.tuples_out",
              med([](const ClosedRep& r) { return r.roles.agg_out; }), "count");
  report->Set("stream.op.dispatch.busy_s",
              med([](const ClosedRep& r) { return r.roles.dispatch_busy; }),
              "s");
  report->Set("stream.op.dispatch.tuples_out",
              med([](const ClosedRep& r) { return r.roles.dispatch_out; }),
              "count");
  report->Set("stream.op.join.busy_s",
              med([](const ClosedRep& r) { return r.roles.join_busy; }), "s");
  report->Set("stream.op.join.tuples_in",
              med([](const ClosedRep& r) { return r.roles.join_in; }), "count");
  report->Set("stream.op.join.tuples_out",
              med([](const ClosedRep& r) { return r.roles.join_out; }),
              "count");
  report->Set("stream.worker_idle_frac", 1.0 - busy_share, "fraction");
  const double plain_tput =
      MedianOf(plain, [](const ClosedRep& r) { return r.throughput_eps; });
  const double single_tput =
      MedianOf(single, [](const ClosedRep& r) { return r.throughput_eps; });
  report->Set("stream.shard_speedup",
              single.empty() ? 0.0 : plain_tput / single_tput, "ratio");
  report->Set("stream.single_shard_throughput_eps", single_tput, "events/s");
  const double hits = med([](const ClosedRep& r) { return r.roles.cache_hits; });
  const double misses =
      med([](const ClosedRep& r) { return r.roles.cache_misses; });
  report->Set("stats.grid_cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction");
  for (const char* k :
       {"uncertain.having_us", "uncertain.having_pass_ratio",
        "uncertain.join_match_us", "uncertain.join_match_calls",
        "uncertain.join_match_ratio", "uncertain.predicate_us",
        "emit.callback_us"}) {
    const bool count = std::strstr(k, "calls") != nullptr;
    const bool ratio = std::strstr(k, "ratio") != nullptr;
    report->Set(k, closed_extras[k],
                count ? "count" : (ratio ? "fraction" : "us"));
  }
  report->Set("rfid.transform_s", Median(transform), "s");
  report->Set("rfid.tuples_per_reading",
              closed_extras["rfid.tuples_per_reading"], "tuples");
  report->Set("rfid.position_error_ft",
              closed_extras["rfid.position_error_ft"], "ft");
  report->Set("gen.late_p99_ms", Percentile(open.late_ms, 99.0), "ms");
  report->Set("gen.late_max_ms", Percentile(open.late_ms, 100.0), "ms");
  report->Set("result_latency_p90_ms", Percentile(open.latency_ms, 90.0),
              "ms");
  report->Set("result_latency_p99_ms", Percentile(open.latency_ms, 99.0),
              "ms");
  report->Set("result_latency_samples",
              static_cast<double>(open.latency_ms.size()), "count");
  const double traced_tput =
      med([](const ClosedRep& r) { return r.throughput_eps; });
  report->Set("trace.overhead",
              traced_tput > 0 ? plain_tput / traced_tput - 1.0 : 0.0,
              "fraction");
  report->Set("trace.producer_coverage", worst_coverage, "fraction");
  report->Set("trace.busy_share", busy_share, "fraction");
  report->Set("trace.spans", static_cast<double>(trace::SpanCount()), "count");
  report->Info("closed_events", std::to_string(static_cast<size_t>(events)));
  if (!ok && report->correct()) report->Fail("traced run did not complete");
  if (!args.span_out.empty() && !trace::WriteSpans(args.span_out)) {
    report->Fail("could not write spans to " + args.span_out);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  std::unique_ptr<Workload> w = MakeWorkload(args);
  if (!w) return Usage();
  Report report;
  AddMachineInfo(args, &report);
  const double steal0 = HostStealSeconds();
  const int rc = args.trace ? RunTraced(args, w.get(), &report)
                            : RunEndToEnd(args, w.get(), &report);
  const double steal = HostStealSeconds() - steal0;
  report.Info("host_steal_s", std::to_string(steal));
  if (args.trace) report.Set("host.steal_s", steal, "s");
  report.Print();
  return rc;
}
