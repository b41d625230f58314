#include "rfid/particle_filter.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "stats/simd/dispatch.h"

namespace usp {
namespace rfid {

namespace {
constexpr double kWeightFloor = 1e-12;

// Max of the x and y posterior standard deviations about `m`.
double SpreadAbout(const ObjectBelief& b, const Point2& m) {
  double vx = 0.0, vy = 0.0;
  for (size_t i = 0; i < b.xs.size(); ++i) {
    vx += b.ws[i] * (b.xs[i] - m.x) * (b.xs[i] - m.x);
    vy += b.ws[i] * (b.ys[i] - m.y) * (b.ys[i] - m.y);
  }
  return std::sqrt(std::max(vx, vy));
}

stats::simd::LogisticDetection KernelModel(const SensingModel& s) {
  return {s.max_read_prob, s.range_midpoint, s.range_steepness,
          s.fov_cos,       s.fov_steepness,  s.hard_range};
}
}  // namespace

Point2 ObjectBelief::Mean() const {
  Point2 m;
  for (size_t i = 0; i < xs.size(); ++i) {
    m.x += ws[i] * xs[i];
    m.y += ws[i] * ys[i];
  }
  return m;
}

double ObjectBelief::Spread() const { return SpreadAbout(*this, Mean()); }

double ObjectBelief::EffectiveSampleSize() const {
  double s2 = 0.0;
  for (double w : ws) s2 += w * w;
  return s2 > 0.0 ? 1.0 / s2 : 0.0;
}

void MoveParticles(const std::vector<Point2>& shelves, double sigma,
                   double jump_prob, common::Rng* rng, MotionScratch* scratch,
                   ObjectBelief* b) {
  const size_t n = b->size();
  if (n == 0) return;
  scratch->u1.resize(n);
  scratch->u2.resize(n);
  scratch->z_cos.resize(n);
  scratch->z_sin.resize(n);
  scratch->targets.resize(n);
  // Serial draw pass, in the per-particle order of the header's contract.
  for (size_t i = 0; i < n; ++i) {
    const Point2* target = nullptr;
    if (jump_prob > 0.0 && rng->Bernoulli(jump_prob)) {
      target = &shelves[rng->UniformInt(shelves.size())];
    }
    scratch->targets[i] = target;
    double u1;
    do {
      u1 = rng->Uniform();
    } while (u1 <= 0.0);
    scratch->u1[i] = u1;
    scratch->u2[i] = rng->Uniform();
  }
  stats::simd::Active().box_muller(scratch->u1.data(), scratch->u2.data(), n,
                                   scratch->z_cos.data(),
                                   scratch->z_sin.data());
  // Rng::Gaussian hands out a pair as (cos, sin). Without a cached deviate
  // particle i takes pair i whole; with one, every particle's x takes the
  // deviate left over before it (the cache, then pair i-1's sin) and its y
  // takes pair i's cos, and pair n-1's sin stays cached.
  double cached = 0.0;
  const bool shifted = rng->TakeCachedGaussian(&cached);
  const double* z_cos = scratch->z_cos.data();
  const double* z_sin = scratch->z_sin.data();
  for (size_t i = 0; i < n; ++i) {
    const double zx = !shifted ? z_cos[i] : (i == 0 ? cached : z_sin[i - 1]);
    const double zy = shifted ? z_cos[i] : z_sin[i];
    // The expressions Rng::Gaussian(mean, sd) = mean + sd * z forms.
    if (const Point2* target = scratch->targets[i]) {
      b->xs[i] = target->x + (0.0 + zx);
      b->ys[i] = target->y + (0.0 + zy);
    } else {
      b->xs[i] += 0.0 + sigma * zx;
      b->ys[i] += 0.0 + sigma * zy;
    }
  }
  if (shifted) rng->SetCachedGaussian(z_sin[n - 1]);
}

// ---------------------------------------------------------------------------
// FactoredParticleFilter

FactoredParticleFilter::FactoredParticleFilter(
    size_t num_objects, std::vector<Point2> shelf_positions,
    const SensingModel& sensing, const FilterOptions& options)
    : shelves_(std::move(shelf_positions)),
      sensing_(sensing),
      detection_(KernelModel(sensing)),
      opts_(options),
      rng_(options.seed) {
  assert(!shelves_.empty());
  area_w_ = 0.0;
  area_h_ = 0.0;
  for (const Point2& s : shelves_) {
    area_w_ = std::max(area_w_, s.x);
    area_h_ = std::max(area_h_, s.y);
  }
  area_w_ += 10.0;
  area_h_ += 10.0;
  cell_ft_ = std::max(sensing_.hard_range / 2.0, 5.0);
  grid_w_ = static_cast<size_t>(area_w_ / cell_ft_) + 1;
  grid_h_ = static_cast<size_t>(area_h_ / cell_ft_) + 1;
  grid_.assign(grid_w_ * grid_h_, {});
  beliefs_.resize(num_objects);
  belief_means_.resize(num_objects);
  for (uint32_t id = 0; id < num_objects; ++id) {
    InitBelief(id);
    belief_means_[id] = beliefs_[id].Mean();
    grid_[CellOf(belief_means_[id])].push_back(id);
  }
}

size_t FactoredParticleFilter::CellOf(const Point2& p) const {
  const size_t cx = std::min(
      grid_w_ - 1, static_cast<size_t>(std::max(0.0, p.x) / cell_ft_));
  const size_t cy = std::min(
      grid_h_ - 1, static_cast<size_t>(std::max(0.0, p.y) / cell_ft_));
  return cy * grid_w_ + cx;
}

void FactoredParticleFilter::InitBelief(uint32_t id) {
  // Prior: uniform over shelves, represented compactly (the full particle
  // budget is spent only once an object is actually observed).
  ObjectBelief& b = beliefs_[id];
  const size_t n = opts_.use_compression ? opts_.compressed_particles
                                         : opts_.particles_per_object;
  b.xs.resize(n);
  b.ys.resize(n);
  b.ws.assign(n, 1.0 / static_cast<double>(n));
  for (size_t i = 0; i < n; ++i) {
    const Point2& shelf = shelves_[rng_.UniformInt(shelves_.size())];
    b.xs[i] = shelf.x + rng_.Gaussian(0.0, 1.0);
    b.ys[i] = shelf.y + rng_.Gaussian(0.0, 1.0);
  }
  b.compressed = (n != opts_.particles_per_object);
  b.last_update_s = 0.0;
}

void FactoredParticleFilter::MotionUpdate(ObjectBelief* b, double now_s) {
  const double dt = std::max(now_s - b->last_update_s, 0.0);
  b->last_update_s = now_s;
  if (dt <= 0.0) return;
  const double sigma = opts_.random_walk_sigma * std::sqrt(dt);
  const double jump_prob = 1.0 - std::exp(-opts_.shelf_jump_rate * dt);
  MoveParticles(shelves_, sigma, jump_prob, &rng_, &motion_scratch_, b);
}

void FactoredParticleFilter::MeasurementUpdate(ObjectBelief* b,
                                               const Reading& reading,
                                               double cos_heading,
                                               double sin_heading,
                                               bool detected) {
  const size_t n = b->size();
  probs_.resize(n);
  stats::simd::Active().logistic_detection(
      detection_, reading.reader_pos.x, reading.reader_pos.y, cos_heading,
      sin_heading, b->xs.data(), b->ys.data(), n, probs_.data());
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double p = probs_[i];
    const double lik = detected ? p : (1.0 - p);
    b->ws[i] *= std::max(lik, kWeightFloor);
    total += b->ws[i];
  }
  if (total <= kWeightFloor * static_cast<double>(b->size())) {
    // Posterior collapsed: the object was detected somewhere none of the
    // particles predicted (e.g. it moved shelves). Re-seed near the reader.
    if (detected) RecoverAroundReader(b, reading);
    return;
  }
  for (double& w : b->ws) w /= total;
}

void FactoredParticleFilter::RecoverAroundReader(ObjectBelief* b,
                                                 const Reading& reading) {
  const size_t n = opts_.particles_per_object;
  b->xs.resize(n);
  b->ys.resize(n);
  b->ws.assign(n, 1.0 / static_cast<double>(n));
  b->compressed = false;
  for (size_t i = 0; i < n; ++i) {
    // Sample within the read range, biased toward the sensing midpoint.
    const double r = std::fabs(rng_.Gaussian(sensing_.range_midpoint * 0.6,
                                             sensing_.range_midpoint * 0.5));
    const double a = rng_.Uniform(0.0, 2.0 * M_PI);
    b->xs[i] = reading.reader_pos.x + r * std::cos(a);
    b->ys[i] = reading.reader_pos.y + r * std::sin(a);
  }
}

void FactoredParticleFilter::ResampleIfNeeded(ObjectBelief* b) {
  const double ess = b->EffectiveSampleSize();
  if (ess >= opts_.resample_ess_fraction * static_cast<double>(b->size())) {
    return;
  }
  const size_t n = b->size();
  resample_xs_.resize(n);
  resample_ys_.resize(n);
  // Systematic resampling.
  const double step = 1.0 / static_cast<double>(n);
  double u = rng_.Uniform() * step;
  double cum = b->ws[0];
  size_t idx = 0;
  for (size_t i = 0; i < n; ++i) {
    while (cum < u && idx + 1 < n) {
      ++idx;
      cum += b->ws[idx];
    }
    resample_xs_[i] = b->xs[idx];
    resample_ys_[i] = b->ys[idx];
    u += step;
  }
  // Copied back rather than swapped, so each belief keeps its own buffers'
  // capacity (a compressed belief stays small).
  std::copy(resample_xs_.begin(), resample_xs_.end(), b->xs.begin());
  std::copy(resample_ys_.begin(), resample_ys_.end(), b->ys.begin());
  b->ws.assign(n, step);
}

Point2 FactoredParticleFilter::CompressOrExpand(ObjectBelief* b) {
  const Point2 mean = b->Mean();
  if (!opts_.use_compression) return mean;
  const double spread = SpreadAbout(*b, mean);
  if (!b->compressed && spread < opts_.compression_stddev_ft &&
      b->size() > opts_.compressed_particles) {
    // Keep the highest-weight particles (the cloud is tight; any subset
    // represents it), renormalize.
    order_.resize(b->size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::partial_sort(order_.begin(),
                      order_.begin() +
                          static_cast<ptrdiff_t>(opts_.compressed_particles),
                      order_.end(), [&](size_t a, size_t c) {
                        return b->ws[a] > b->ws[c];
                      });
    std::vector<double> xs(opts_.compressed_particles),
        ys(opts_.compressed_particles), ws(opts_.compressed_particles);
    double total = 0.0;
    for (size_t i = 0; i < opts_.compressed_particles; ++i) {
      xs[i] = b->xs[order_[i]];
      ys[i] = b->ys[order_[i]];
      ws[i] = b->ws[order_[i]];
      total += ws[i];
    }
    for (double& w : ws) w /= total;
    b->xs = std::move(xs);
    b->ys = std::move(ys);
    b->ws = std::move(ws);
    b->compressed = true;
    return b->Mean();
  } else if (b->compressed && b->ever_detected &&
             spread > opts_.expansion_stddev_ft) {
    // Uncertainty grew (missed detections / possible move): re-expand by
    // jittered replication so the filter can re-localize. Never-detected
    // objects keep the compact prior — negative evidence barely moves a
    // shelf-uniform prior, so the full budget would be wasted there.
    const size_t n = opts_.particles_per_object;
    std::vector<double> xs(n), ys(n);
    for (size_t i = 0; i < n; ++i) {
      const size_t src = i % b->size();
      xs[i] = b->xs[src] + rng_.Gaussian(0.0, 0.5);
      ys[i] = b->ys[src] + rng_.Gaussian(0.0, 0.5);
    }
    b->xs = std::move(xs);
    b->ys = std::move(ys);
    b->ws.assign(n, 1.0 / static_cast<double>(n));
    b->compressed = false;
    return b->Mean();
  }
  return mean;
}

void FactoredParticleFilter::CandidateObjects(
    const Reading& reading, std::vector<uint32_t>* out) const {
  out->clear();
  if (!opts_.use_spatial_index) {
    out->resize(beliefs_.size());
    for (uint32_t id = 0; id < beliefs_.size(); ++id) (*out)[id] = id;
    return;
  }
  const double radius = sensing_.hard_range + 5.0;
  const int r_cells = static_cast<int>(radius / cell_ft_) + 1;
  const int cx =
      static_cast<int>(std::max(0.0, reading.reader_pos.x) / cell_ft_);
  const int cy =
      static_cast<int>(std::max(0.0, reading.reader_pos.y) / cell_ft_);
  for (int gy = cy - r_cells; gy <= cy + r_cells; ++gy) {
    if (gy < 0 || gy >= static_cast<int>(grid_h_)) continue;
    for (int gx = cx - r_cells; gx <= cx + r_cells; ++gx) {
      if (gx < 0 || gx >= static_cast<int>(grid_w_)) continue;
      const auto& cell = grid_[static_cast<size_t>(gy) * grid_w_ +
                               static_cast<size_t>(gx)];
      out->insert(out->end(), cell.begin(), cell.end());
    }
  }
  // Detected objects must always be processed, wherever their belief is.
  for (uint32_t id : reading.observed_objects) {
    if (std::find(out->begin(), out->end(), id) == out->end()) {
      out->push_back(id);
    }
  }
}

void FactoredParticleFilter::ReindexObject(uint32_t id,
                                           const Point2& old_mean,
                                           const Point2& new_mean) {
  const size_t old_cell = CellOf(old_mean);
  const size_t new_cell = CellOf(new_mean);
  belief_means_[id] = new_mean;
  if (old_cell == new_cell) return;
  auto& bucket = grid_[old_cell];
  bucket.erase(std::remove(bucket.begin(), bucket.end(), id), bucket.end());
  grid_[new_cell].push_back(id);
}

size_t FactoredParticleFilter::ProcessReading(const Reading& reading) {
  CandidateObjects(reading, &candidates_);
  // Detected set membership; candidate lists are small so linear probing
  // against a sorted copy is cheap.
  detected_.assign(reading.observed_objects.begin(),
                   reading.observed_objects.end());
  std::sort(detected_.begin(), detected_.end());
  const double cos_heading = std::cos(reading.reader_heading_rad);
  const double sin_heading = std::sin(reading.reader_heading_rad);
  if (!opts_.lazy_motion) {
    // Eager motion: advance every object's belief (ablation mode).
    for (uint32_t id = 0; id < beliefs_.size(); ++id) {
      MotionUpdate(&beliefs_[id], reading.time_s);
    }
  }
  for (uint32_t id : candidates_) {
    ObjectBelief& b = beliefs_[id];
    const Point2 old_mean = belief_means_[id];
    if (opts_.lazy_motion) MotionUpdate(&b, reading.time_s);
    const bool was_detected =
        std::binary_search(detected_.begin(), detected_.end(), id);
    if (was_detected) {
      b.ever_detected = true;
      b.last_seen_s = reading.time_s;
      ++b.detection_count;
    }
    MeasurementUpdate(&b, reading, cos_heading, sin_heading, was_detected);
    ResampleIfNeeded(&b);
    const Point2 new_mean = CompressOrExpand(&b);
    ReindexObject(id, old_mean, new_mean);
  }
  return candidates_.size();
}

double FactoredParticleFilter::MeanErrorAgainst(
    const std::vector<Point2>& truth, double seen_since_s,
    uint64_t min_detections) const {
  assert(truth.size() == beliefs_.size());
  double total = 0.0;
  size_t count = 0;
  for (uint32_t id = 0; id < beliefs_.size(); ++id) {
    if (!beliefs_[id].ever_detected) continue;
    if (beliefs_[id].detection_count < min_detections) continue;
    if (beliefs_[id].last_seen_s < seen_since_s) continue;
    total += Distance(beliefs_[id].Mean(), truth[id]);
    ++count;
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

size_t FactoredParticleFilter::TotalParticles() const {
  size_t total = 0;
  for (const ObjectBelief& b : beliefs_) total += b.size();
  return total;
}

// ---------------------------------------------------------------------------
// JointParticleFilter

JointParticleFilter::JointParticleFilter(size_t num_objects,
                                         std::vector<Point2> shelf_positions,
                                         const SensingModel& sensing,
                                         const FilterOptions& options)
    : shelves_(std::move(shelf_positions)),
      sensing_(sensing),
      opts_(options),
      rng_(options.seed) {
  particles_.resize(opts_.particles_per_object);
  weights_.assign(particles_.size(), 1.0 / static_cast<double>(
                                               particles_.size()));
  ever_detected_.assign(num_objects, false);
  for (auto& p : particles_) {
    p.positions.resize(num_objects);
    for (auto& pos : p.positions) {
      const Point2& shelf = shelves_[rng_.UniformInt(shelves_.size())];
      pos = {shelf.x + rng_.Gaussian(0.0, 1.0),
             shelf.y + rng_.Gaussian(0.0, 1.0)};
    }
  }
}

void JointParticleFilter::ProcessReading(const Reading& reading) {
  const double dt = std::max(reading.time_s - last_update_s_, 0.0);
  last_update_s_ = reading.time_s;
  const double sigma = opts_.random_walk_sigma * std::sqrt(std::max(dt, 0.0));
  const double jump_prob = 1.0 - std::exp(-opts_.shelf_jump_rate * dt);
  std::vector<bool> detected(ever_detected_.size(), false);
  for (uint32_t id : reading.observed_objects) {
    detected[id] = true;
    ever_detected_[id] = true;
  }
  const double cos_heading = std::cos(reading.reader_heading_rad);
  const double sin_heading = std::sin(reading.reader_heading_rad);
  double total = 0.0;
  for (size_t k = 0; k < particles_.size(); ++k) {
    JointParticle& p = particles_[k];
    double log_lik = 0.0;
    for (size_t id = 0; id < p.positions.size(); ++id) {
      if (dt > 0.0) {
        if (jump_prob > 0.0 && rng_.Bernoulli(jump_prob)) {
          const Point2& shelf = shelves_[rng_.UniformInt(shelves_.size())];
          p.positions[id] = {shelf.x + rng_.Gaussian(0.0, 1.0),
                             shelf.y + rng_.Gaussian(0.0, 1.0)};
        } else {
          p.positions[id].x += rng_.Gaussian(0.0, sigma);
          p.positions[id].y += rng_.Gaussian(0.0, sigma);
        }
      }
      const double prob = sensing_.DetectionProbability(
          reading.reader_pos, cos_heading, sin_heading, p.positions[id]);
      const double lik = detected[id] ? prob : (1.0 - prob);
      log_lik += std::log(std::max(lik, kWeightFloor));
    }
    weights_[k] *= std::exp(log_lik);
    total += weights_[k];
  }
  if (total <= 0.0) {
    weights_.assign(weights_.size(),
                    1.0 / static_cast<double>(weights_.size()));
  } else {
    for (double& w : weights_) w /= total;
  }
  // Resample on low ESS.
  double s2 = 0.0;
  for (double w : weights_) s2 += w * w;
  const double ess = s2 > 0.0 ? 1.0 / s2 : 0.0;
  if (ess < opts_.resample_ess_fraction *
                static_cast<double>(particles_.size())) {
    std::vector<JointParticle> next(particles_.size());
    const double step = 1.0 / static_cast<double>(particles_.size());
    double u = rng_.Uniform() * step;
    double cum = weights_[0];
    size_t idx = 0;
    for (size_t i = 0; i < particles_.size(); ++i) {
      while (cum < u && idx + 1 < particles_.size()) {
        ++idx;
        cum += weights_[idx];
      }
      next[i] = particles_[idx];
      u += step;
    }
    particles_ = std::move(next);
    weights_.assign(weights_.size(), step);
  }
}

Point2 JointParticleFilter::EstimateMean(uint32_t id) const {
  Point2 m;
  for (size_t k = 0; k < particles_.size(); ++k) {
    m.x += weights_[k] * particles_[k].positions[id].x;
    m.y += weights_[k] * particles_[k].positions[id].y;
  }
  return m;
}

double JointParticleFilter::MeanErrorAgainst(
    const std::vector<Point2>& truth) const {
  double total = 0.0;
  size_t count = 0;
  for (uint32_t id = 0; id < ever_detected_.size(); ++id) {
    if (!ever_detected_[id]) continue;
    total += Distance(EstimateMean(id), truth[id]);
    ++count;
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

}  // namespace rfid
}  // namespace usp
