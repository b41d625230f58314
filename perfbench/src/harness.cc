#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "stats/simd/dispatch.h"

namespace perfbench {

// ---------------------------------------------------------------- clocks

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t deadline_ns) {
  // Sleep to just short of the deadline, then spin: waking a halted vCPU
  // takes the hypervisor anywhere from tens of microseconds to
  // milliseconds depending on the host's load, and that lateness would
  // otherwise land in every open-loop latency sample.
  constexpr int64_t kSpinNs = 300'000;
  const int64_t wait = deadline_ns - NowNs() - kSpinNs;
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  while (NowNs() < deadline_ns) {
  }
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double HostStealSeconds(unsigned cpus) {
  // Lines: "cpu  user nice system idle iowait irq softirq steal ..." for
  // the total, then one "cpuN ..." line per CPU.
  std::ifstream in("/proc/stat");
  std::string line;
  unsigned long long ticks = 0;
  while (std::getline(in, line)) {
    unsigned cpu = 0;
    unsigned long long v[8] = {};
    if (cpus == 0) {
      if (std::sscanf(line.c_str(),
                      "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
        ticks = v[7];
        break;
      }
    } else if (std::sscanf(line.c_str(),
                           "cpu%u %llu %llu %llu %llu %llu %llu %llu %llu",
                           &cpu, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                           &v[6], &v[7]) == 9 &&
               cpu < cpus) {
      ticks += v[7];
    }
  }
  return static_cast<double>(ticks) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

MachineInfo DescribeMachine() {
  MachineInfo m;
  m.nproc = std::thread::hardware_concurrency();
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) m.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  m.isa = usp::stats::simd::ActiveIsaName();
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.compiler = PERFBENCH_COMPILER;
  return m;
}

// ----------------------------------------------------------------- stats

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

uint64_t Mix(uint64_t seed, uint64_t index) {
  // SplitMix64 finaliser over a (seed, index) combination.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Unit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

// --------------------------------------------------------------- latency

void LatencyRecorder::Record(int64_t due_us) {
  if (!active_.load(std::memory_order_acquire)) return;
  const int64_t now = NowNs();
  const int64_t due_ns = t0_ns_.load(std::memory_order_relaxed) + due_us * 1000;
  const double ms = static_cast<double>(now - due_ns) / 1e6;
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back({now, ms});
}

std::vector<std::pair<int64_t, double>> LatencyRecorder::TakeSamples() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(samples_);
}

// --------------------------------------------------------------- tracing

namespace trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_trace_id{0};
std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint32_t> g_next_thread{0};

struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t trace_id;
  uint32_t thread;
};

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<uint64_t> stack;  // open span ids (parents)
  uint64_t sampled_calls = 0;
};

std::mutex g_buffers_mu;
// Buffers outlive their threads: worker threads exit at Finish(), spans
// are written at process exit.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& Local() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->thread = g_next_thread.fetch_add(1);
    buf = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(owned));
  }
  return *buf;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void Enable(bool on) { g_enabled.store(on); }
void SetTraceId(uint64_t id) { g_trace_id.store(id); }

Span::Span(const char* name) : name_(name) {
  if (!Enabled()) return;
  on_ = true;
  ThreadBuffer& buf = Local();
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = buf.stack.empty() ? 0 : buf.stack.back();
  buf.stack.push_back(id_);
  start_ns_ = NowNs();
}

Span::~Span() {
  if (!on_) return;
  const int64_t end = NowNs();
  ThreadBuffer& buf = Local();
  buf.stack.pop_back();
  buf.spans.push_back({name_, start_ns_, end, id_, parent_,
                       g_trace_id.load(std::memory_order_relaxed),
                       buf.thread});
}

CallTimer::CallTimer(const char* name, Counter* counter)
    : name_(name), counter_(counter), start_ns_(NowNs()) {}

CallTimer::~CallTimer() {
  const int64_t end = NowNs();
  counter_->calls.fetch_add(1, std::memory_order_relaxed);
  counter_->ns.fetch_add(end - start_ns_, std::memory_order_relaxed);
  if (pass_) counter_->passes.fetch_add(1, std::memory_order_relaxed);
  if (!Enabled()) return;
  ThreadBuffer& buf = Local();
  if (buf.sampled_calls++ % 64 != 0) return;
  const uint64_t id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  buf.spans.push_back({name_, start_ns_, end, id,
                       buf.stack.empty() ? 0 : buf.stack.back(),
                       g_trace_id.load(std::memory_order_relaxed),
                       buf.thread});
}

double TotalSeconds(const char* name, uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  int64_t ns = 0;
  for (const auto& buf : g_buffers) {
    for (const SpanRecord& s : buf->spans) {
      if (std::strcmp(s.name, name) != 0) continue;
      if (trace_id != 0 && s.trace_id != trace_id) continue;
      ns += s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(ns) / 1e9;
}

std::vector<double> Durations(const char* name) {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<double> out;
  for (const auto& buf : g_buffers) {
    for (const SpanRecord& s : buf->spans) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
      }
    }
  }
  return out;
}

size_t SpanCount() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  size_t n = 0;
  for (const auto& buf : g_buffers) n += buf->spans.size();
  return n;
}

bool WriteSpans(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buf : g_buffers) {
    for (const SpanRecord& s : buf->spans) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"trace_id\":" << s.trace_id
          << ",\"thread\":" << s.thread << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace trace

// ----------------------------------------------------------- observation

usp::stream::MapOperator::MapFn ObserveMap(LatencyRecorder* latency,
                                           trace::Counter* calls) {
  const auto record = ObserveCallback(latency, calls);
  return [record](const usp::stream::Tuple& row)
             -> usp::common::Result<usp::stream::Tuple> {
    record(row);
    return row;
  };
}

std::function<void(const usp::stream::Tuple&)> ObserveCallback(
    LatencyRecorder* latency, trace::Counter* calls) {
  if (trace::Enabled()) {
    return [latency, calls](const usp::stream::Tuple& row) {
      trace::CallTimer timer("emit.callback", calls);
      if (latency != nullptr) latency->Record(row.timestamp());
    };
  }
  return [latency](const usp::stream::Tuple& row) {
    if (latency != nullptr) latency->Record(row.timestamp());
  };
}

// ---------------------------------------------------------------- report

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& key, const std::string& json_value) {
  info_.push_back({key, json_value});
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  failures_.push_back(why);
}

void Report::Print() const {
  std::ostringstream info;
  info << "{";
  for (size_t i = 0; i < info_.size(); ++i) {
    info << (i ? "," : "") << JsonString(info_[i].first) << ":"
         << info_[i].second;
  }
  info << "}";
  std::printf("info %s\n", info.str().c_str());
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  for (const auto& m : metrics_) {
    std::printf("%-40s %16.6g %s\n", m.first.c_str(), m.second.first,
                m.second.second.c_str());
  }
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(metrics_[i].first)
        << ": {\"value\": " << JsonNumber(metrics_[i].second.first)
        << ", \"unit\": " << JsonString(metrics_[i].second.second) << "}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
