// Reproduces Figure 3: "Accuracy and performance results for a high noisy
// RFID trace." Two panels:
//   (a) inference error in the XY plane (ft) vs. number of objects
//       (100..20000, log scale) for 50/100/200 particles;
//   (b) CPU time per event (ms) vs. number of objects for the same
//       particle counts.
//
// Expected shape (per the paper's plots): error decreases as particles
// increase and stays sub-foot-to-few-feet; time per event grows with the
// particle count and stays in the low-millisecond range even at 20,000
// objects thanks to spatial indexing + compression (§4.1).
//
// Each (objects, particles) point runs `reps` times (5; once under
// --smoke) from a fresh simulator and filter. The error is a property of
// the seeded run, so every rep must reproduce it bit for bit (the bench
// exits 1 otherwise); time per event is reported as the median, min and
// max over the reps. BENCH_fig3.json (or --json-out) holds both panels
// and a machine block. --smoke shrinks the axes and scan counts for the
// sanitizer CI; --simd off forces the scalar kernel tier.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "rfid/model.h"
#include "rfid/particle_filter.h"

namespace {

using usp::rfid::FactoredParticleFilter;
using usp::rfid::FilterOptions;
using usp::rfid::WarehouseConfig;
using usp::rfid::WarehouseSimulator;

WarehouseConfig FixedConfig(size_t objects) {
  WarehouseConfig c;
  // Fixed 200x200 ft warehouse for every object count, as in a single
  // physical trace: only the tag population density changes.
  c.width_ft = 200.0;
  c.height_ft = 200.0;
  c.shelf_rows = 20;
  c.shelf_cols = 20;
  c.num_objects = objects;
  c.reader_speed_ftps = 10.0;
  c.scan_period_s = 0.25;
  // Static objects: Fig 3 measures inference accuracy/cost, not move
  // recovery (which the tests and the transform-operator path exercise).
  c.object_move_prob_per_scan = 0.0;
  c.seed = 1005;
  // Individual reads still misfire frequently off-axis and at range, but
  // the roll-off is sharp enough that a pass yields several sightings
  // that triangulate the tag.
  c.sensing.max_read_prob = 0.95;
  c.sensing.range_midpoint = 8.0;
  c.sensing.range_steepness = 2.0;
  c.sensing.hard_range = 15.0;
  return c;
}

bool g_smoke = false;
size_t g_reps = 5;
const char* g_json_out = "BENCH_fig3.json";

struct Fig3Point {
  size_t objects;
  size_t particles;
  double error_ft;
  size_t error_events;  ///< sightings the error averages over
  usp::bench::Spread ms_per_event;
};

struct Fig3Run {
  double error_ft;
  size_t error_events;
  double ms_per_event;
};

Fig3Run RunOnce(size_t objects, size_t particles) {
  const WarehouseConfig config = FixedConfig(objects);
  WarehouseSimulator sim(config);
  FilterOptions opts;
  opts.particles_per_object = particles;
  opts.seed = 31 + particles;
  // The world is near-static; keep the filter's motion model tight so the
  // posterior does not artificially diffuse between reader visits.
  opts.random_walk_sigma = 0.02;
  opts.shelf_jump_rate = 0.0005;
  FactoredParticleFilter filter(objects, sim.shelf_positions(),
                                config.sensing, opts);
  // Warm-up: let the reader cover most of the floor once.
  constexpr int kWarmupScans = 1800;
  for (int i = 0; i < kWarmupScans; ++i) {
    filter.ProcessReading(sim.Step());
  }
  // Timed section. The Fig 3(a) error is accumulated per event: at each
  // sighting of an object the filter already tracks (>= 8 lifetime
  // detections), compare the posterior-mean location with ground truth.
  const int kTimedScans = g_smoke ? 300 : objects <= 1000 ? 2400 : 800;
  double err_total = 0.0;
  size_t err_count = 0;
  double process_ms = 0.0;
  usp::common::Stopwatch sw;
  for (int i = 0; i < kTimedScans; ++i) {
    const usp::rfid::Reading reading = sim.Step();
    sw.Restart();
    filter.ProcessReading(reading);
    process_ms += sw.ElapsedMillis();
    for (uint32_t id : reading.observed_objects) {
      const auto& belief = filter.belief(id);
      if (belief.detection_count < 8) continue;
      err_total += usp::rfid::Distance(belief.Mean(),
                                       sim.true_object_positions()[id]);
      ++err_count;
    }
  }
  const double ms = process_ms / kTimedScans;
  const double err =
      err_count > 0 ? err_total / static_cast<double>(err_count) : 0.0;
  return {err, err_count, ms};
}

// Runs one point g_reps times; false if a rep's error differs from the
// first rep's.
bool MeasurePoint(size_t objects, size_t particles, Fig3Point* point) {
  bool reproducible = true;
  size_t runs = 0;
  Fig3Run first{};
  const usp::bench::Spread ms = usp::bench::Measure(g_reps, [&]() {
    const Fig3Run run = RunOnce(objects, particles);
    if (runs++ == 0) {
      first = run;
    } else if (run.error_ft != first.error_ft ||
               run.error_events != first.error_events) {
      reproducible = false;
    }
    return run.ms_per_event;
  });
  *point = {objects, particles, first.error_ft, first.error_events, ms};
  return reproducible;
}

void WriteJson(const std::vector<Fig3Point>& points) {
  FILE* f = fopen(g_json_out, "w");
  if (!f) return;
  fprintf(f, "{\n  \"bench\": \"fig3_particle_filter\",\n");
  fprintf(f, "  \"smoke\": %s,\n", g_smoke ? "true" : "false");
  usp::bench::PrintMachineJson(f);
  fprintf(f, "  \"reps\": %zu,\n", g_reps);
  fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const Fig3Point& p = points[i];
    fprintf(f,
            "    {\"objects\": %zu, \"particles\": %zu, "
            "\"error_ft\": %.6f, \"error_events\": %zu, "
            "\"ms_per_event\": %.4f, \"ms_per_event_min\": %.4f, "
            "\"ms_per_event_max\": %.4f}%s\n",
            p.objects, p.particles, p.error_ft, p.error_events,
            p.ms_per_event.median, p.ms_per_event.min, p.ms_per_event.max,
            i + 1 < points.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
}

// Prints both panels and writes the JSON; false if any point failed to
// reproduce its error across reps.
bool PrintFig3() {
  std::vector<size_t> object_counts = {100, 500, 1000, 5000, 10000, 20000};
  std::vector<size_t> particle_counts = {50, 100, 200};
  if (g_smoke) {
    object_counts = {100, 1000};
    particle_counts = {50, 100};
  }
  bool reproducible = true;
  printf("\n=== Figure 3(a): inference error in XY plane (ft) vs #objects "
         "===\n");
  printf("%-10s", "objects");
  for (size_t p : particle_counts) printf(" %11zu-part", p);
  printf("\n");
  // Cache the runs so panel (b) reuses them.
  std::vector<Fig3Point> points;
  for (size_t n : object_counts) {
    printf("%-10zu", n);
    for (size_t p : particle_counts) {
      Fig3Point pt;
      if (!MeasurePoint(n, p, &pt)) {
        fprintf(stderr, "objects %zu, particles %zu: error differs between "
                "reps\n", n, p);
        reproducible = false;
      }
      points.push_back(pt);
      printf(" %16.3f", pt.error_ft);
      fflush(stdout);
    }
    printf("\n");
  }
  printf("\n=== Figure 3(b): CPU time per event (ms, median of %zu) vs "
         "#objects ===\n", g_reps);
  printf("%-10s", "objects");
  for (size_t p : particle_counts) printf(" %11zu-part", p);
  printf("\n");
  size_t idx = 0;
  for (size_t n : object_counts) {
    printf("%-10zu", n);
    for (size_t p : particle_counts) {
      (void)p;
      printf(" %16.4f", points[idx].ms_per_event.median);
      ++idx;
    }
    printf("\n");
  }
  printf("\n(paper shape: error falls with more particles; "
         "time/event rises with particles, stays ~ms at 20k objects)\n\n");
  WriteJson(points);
  return reproducible;
}

void BM_ProcessReading(benchmark::State& state) {
  const size_t objects = static_cast<size_t>(state.range(0));
  const size_t particles = static_cast<size_t>(state.range(1));
  const WarehouseConfig config = FixedConfig(objects);
  WarehouseSimulator sim(config);
  FilterOptions opts;
  opts.particles_per_object = particles;
  FactoredParticleFilter filter(objects, sim.shelf_positions(),
                                config.sensing, opts);
  for (auto _ : state) {
    filter.ProcessReading(sim.Step());
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_ProcessReading)
    ->Args({1000, 50})
    ->Args({1000, 200})
    ->Args({20000, 100})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  const usp::bench::Args args = usp::bench::ParseArgs(argc, argv);
  g_smoke = args.smoke;
  printf("SIMD dispatch: %s\n", usp::bench::ApplySimdFlag(args));
  g_json_out = args.JsonOutPath("BENCH_fig3.json");
  if (g_smoke) g_reps = 1;
  if (!PrintFig3()) return 1;
  if (!g_smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
