// Shared machinery of the end-to-end benchmark: command line, clocks and
// /proc readers, latency recording, span tracing, and the result report.
//
// Nothing here reaches into the library's internals: the benchmark times
// calls into each module's public functions and reads MetricsSnapshot().

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/planner.h"
#include "stream/batch.h"
#include "stream/basic_operators.h"
#include "stream/exec_graph.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string span_out;
};

// ---------------------------------------------------------------- clocks

int64_t NowNs();
void SleepUntilNs(int64_t deadline_ns);
double ProcessCpuSeconds();
double PeakRssMiB();
/// Host steal time from /proc/stat in seconds (0 if absent): summed over
/// CPUs 0..cpus-1, or over all CPUs when `cpus` is 0.
double HostStealSeconds(unsigned cpus = 0);

struct MachineInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string isa;
  std::string build_type;
  std::string compiler;
};
MachineInfo DescribeMachine();

// ----------------------------------------------------------------- stats

double Median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);

/// Deterministic per-(seed, index) randomness: inputs are a pure function
/// of the seed and the event index, so the generator stores nothing per
/// event and the reference can recompute any event.
uint64_t Mix(uint64_t seed, uint64_t index);
double Unit(uint64_t bits);  // [0, 1)

// --------------------------------------------------------------- latency

/// Result-latency samples, recorded by the observation point (a final
/// pass-through Map or an OnMatch callback) on whichever thread emits.
/// Latency = observation time - due time of the newest input the result
/// depends on; due time = phase start + event-time offset.
class LatencyRecorder {
 public:
  void Start(int64_t t0_ns) {
    t0_ns_.store(t0_ns, std::memory_order_relaxed);
    active_.store(true, std::memory_order_release);
  }
  void Stop() { active_.store(false, std::memory_order_release); }
  /// `due_us` is the event-time offset (microseconds) of the newest input.
  void Record(int64_t due_us);
  /// (observation time in ns, latency in ms) pairs.
  std::vector<std::pair<int64_t, double>> TakeSamples();

 private:
  std::atomic<bool> active_{false};
  std::atomic<int64_t> t0_ns_{0};
  std::mutex mu_;
  std::vector<std::pair<int64_t, double>> samples_;
};

// --------------------------------------------------------------- tracing

/// Span tracing from the benchmark's side of each layer boundary. Spans
/// are kept in per-thread memory and written as JSON lines at exit.
/// Fine-grained closures (HAVING, join match, predicate, emission) are
/// counted and timed on every call but only every 64th call is kept as a
/// span, so the span file stays small.
namespace trace {

bool Enabled();
void Enable(bool on);
/// Groups spans of one phase (one closed-loop rep or the open loop).
void SetTraceId(uint64_t id);

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  int64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  bool on_ = false;
};

/// Per-closure call counter: count, passes (for ratio metrics) and time.
struct Counter {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> passes{0};
  std::atomic<int64_t> ns{0};
  void Reset() {
    calls = 0;
    passes = 0;
    ns = 0;
  }
  double MeanUs() const {
    const uint64_t c = calls.load();
    return c == 0 ? 0.0 : static_cast<double>(ns.load()) / 1e3 / c;
  }
  double PassRatio() const {
    const uint64_t c = calls.load();
    return c == 0 ? 0.0 : static_cast<double>(passes.load()) / c;
  }
};

/// Times one closure call into `counter`; keeps every 64th as a span.
class CallTimer {
 public:
  CallTimer(const char* name, Counter* counter);
  ~CallTimer();
  void Pass() { pass_ = true; }

 private:
  const char* name_;
  Counter* counter_;
  int64_t start_ns_;
  bool pass_ = false;
};

/// Sum of span durations with `name` across threads (seconds), optionally
/// restricted to one trace id (0 = all).
double TotalSeconds(const char* name, uint64_t trace_id = 0);
/// Durations (seconds) of every span with `name`.
std::vector<double> Durations(const char* name);
size_t SpanCount();
/// Writes every recorded span as one JSON object per line.
bool WriteSpans(const std::string& path);

}  // namespace trace

// ---------------------------------------------------------------- report

/// What a workload's Verify() found: rows/alerts checked, and how many
/// were missing, extra or wrong. `error` is the workload's result_error.
struct CheckResult {
  uint64_t checked = 0;
  uint64_t failed = 0;
  double error = 0.0;
  std::string detail;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& json_value);
  void AddAttempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Fail(const std::string& why);
  bool correct() const { return correct_; }
  /// Prints the info block and a readable metric table, then the final
  /// result object as the last line of standard output.
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> failures_;
};

std::string JsonString(const std::string& s);

// ------------------------------------------------------------- workloads

/// One compiled plan plus the generator that feeds it. Push() generates
/// events [begin, end) — building the library's tuples — and pushes them.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual usp::common::Status Push(size_t begin, size_t end) = 0;
  virtual usp::common::Status Finish() = 0;
  virtual std::vector<usp::stream::NodeMetrics> Metrics() const = 0;
  virtual const usp::query::PlanSummary& Summary() const = 0;
  virtual size_t BatchTarget() const = 0;
  virtual size_t SinkRows() const = 0;
};

/// Engine over a CompiledQuery or MultiplexedQuery; subclasses add the
/// generator. Push/finish calls are wrapped in spans.
template <typename Plan>
class PlanEngine : public Engine {
 public:
  PlanEngine(std::unique_ptr<Plan> plan, std::string sink)
      : plan_(std::move(plan)), sink_(plan_->sink(sink)) {}

  usp::common::Status Finish() override {
    trace::Span span("stream.finish");
    return plan_->Finish();
  }
  std::vector<usp::stream::NodeMetrics> Metrics() const override {
    return plan_->MetricsSnapshot();
  }
  const usp::query::PlanSummary& Summary() const override {
    return plan_->summary();
  }
  size_t SinkRows() const override { return plan_->Result(sink_).size(); }
  const usp::stream::TupleBatch& Rows() const { return plan_->Result(sink_); }
  Plan& plan() { return *plan_; }

 protected:
  usp::common::Status PushTimed(usp::stream::ExecGraph::NodeId source,
                                usp::stream::TupleBatch&& batch) {
    trace::Span span("stream.push");
    return plan_->PushBatch(source, std::move(batch));
  }

  std::unique_ptr<Plan> plan_;
  usp::stream::ExecGraph::NodeId sink_;
};

/// The observation point: a pass-through map that records each result
/// row's latency (due time = the row's timestamp) and, when tracing was on
/// at set-up, times itself into `calls`. `latency` may be null.
usp::stream::MapOperator::MapFn ObserveMap(LatencyRecorder* latency,
                                           trace::Counter* calls);

/// Same observation for OnMatch callbacks.
std::function<void(const usp::stream::Tuple&)> ObserveCallback(
    LatencyRecorder* latency, trace::Counter* calls);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Events per closed-loop rep (fixed, never time-derived).
  virtual size_t closed_events() const = 0;
  /// Events per PushBatch in the closed loop.
  virtual size_t push_chunk() const = 0;
  /// Offered open-loop rate, events/s (a constant of the workload).
  virtual double offered_rate() const = 0;
  /// Event-time offset of event i, microseconds (= its due time).
  virtual int64_t EventUs(size_t i) const = 0;
  /// Independent inputs the closed loop cycles through (rep r replays
  /// input r % num_inputs()); result_error is their mean. More than one
  /// where a single input's accuracy depends on too few independent cases.
  virtual size_t num_inputs() const { return 1; }
  /// Builds a fresh plan over `input` (everything a user pays before the
  /// first push). `latency` receives observation samples; may be null.
  virtual usp::common::Result<std::unique_ptr<Engine>> Setup(
      size_t num_shards, LatencyRecorder* latency, size_t input) = 0;
  virtual size_t default_shards() const = 0;
  /// Checks the engine's results for events [0, n) against a reference
  /// computed outside the engine.
  virtual CheckResult Verify(Engine& engine, size_t n) = 0;
  /// Per-layer numbers only the workload knows (closure counters, rfid),
  /// by per-layer metric name.
  virtual void CollectLayers(std::map<std::string, double>* /*out*/) {}
  virtual void ResetLayers() {}
};

std::unique_ptr<Workload> MakeQ1Fire(const Args& args);
std::unique_ptr<Workload> MakeCfInvSliding(const Args& args);
std::unique_ptr<Workload> MakeAlerts100k(const Args& args);
std::unique_ptr<Workload> MakeRfidQ2(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
