// Particle-filter inference of object locations from mobile RFID readings
// (§4.1). Two implementations:
//
//  - JointParticleFilter: the textbook baseline — each particle is a joint
//    assignment of ALL object locations. Cost per reading is
//    O(particles x objects) and the joint space degenerates quickly; this
//    is the "0.1 reading per second for 20 objects" starting point.
//
//  - FactoredParticleFilter: the paper's optimized design. *Factorization*
//    gives each object its own independent particle set (linear, not
//    exponential, in objects); *spatial indexing* restricts each reading's
//    update to objects near the reader; *compression* shrinks the particle
//    set of objects whose posterior has stabilized in a small region.
//    Each optimization can be toggled for the ablation bench.
//
// The factored filter's per-particle math runs in blocks through the
// stats::simd dispatch kernels, so it is bitwise-identical on every SIMD
// tier: the motion update draws one object's uniforms serially, turns
// them into Gaussians with one Box-Muller kernel call
// (MoveParticles), and the measurement update scores every particle with
// one logistic-detection kernel call. Weight products, sums, means,
// resampling and compression stay scalar loops in particle order.
//
// Draw-order contract: MoveParticles consumes the filter's common::Rng
// exactly as a per-particle loop over Rng::Bernoulli, Rng::UniformInt and
// two Rng::Gaussian calls would — per particle, the Bernoulli uniform
// (only when jump_prob > 0), the shelf index (only for a jump), then one
// Box-Muller pair (u1 redrawn while u1 <= 0, then u2). A Gaussian deviate
// the Rng had cached on entry is consumed first and the last pair's
// second deviate is left cached, as Rng::Gaussian would. Only the
// transcendentals differ from Rng::Gaussian's: the lane-exact
// stats::simd Log/SinCos (~1-2 ulp) replace libm.
//
// JointParticleFilter, the ablation baseline, keeps its per-particle
// Rng::Gaussian loop.

#ifndef USP_RFID_PARTICLE_FILTER_H_
#define USP_RFID_PARTICLE_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "rfid/model.h"
#include "stats/simd/dispatch.h"

namespace usp {
namespace rfid {

/// Tuning knobs shared by both filters.
struct FilterOptions {
  size_t particles_per_object = 100;
  bool use_spatial_index = true;    ///< factored filter only
  bool use_compression = true;      ///< factored filter only
  bool lazy_motion = true;          ///< factored filter only: update motion
                                    ///< only for candidate objects
  size_t compressed_particles = 8;
  double compression_stddev_ft = 0.8;  ///< compress below this spread
  double expansion_stddev_ft = 2.5;    ///< re-expand above this spread
  double random_walk_sigma = 0.15;     ///< ft per sqrt(second)
  double shelf_jump_rate = 0.004;      ///< per-second hazard of a shelf hop
  double resample_ess_fraction = 0.5;
  uint64_t seed = 99;
};

/// Per-object weighted particle cloud over (x, y).
struct ObjectBelief {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> ws;  ///< normalized
  double last_update_s = 0.0;
  double last_seen_s = -1.0;  ///< time of the most recent detection
  uint64_t detection_count = 0;
  bool ever_detected = false;
  bool compressed = false;

  size_t size() const { return xs.size(); }
  Point2 Mean() const;
  /// Max of the x and y posterior standard deviations.
  double Spread() const;
  double EffectiveSampleSize() const;
};

/// Per-particle buffers MoveParticles reuses from call to call.
struct MotionScratch {
  std::vector<double> u1, u2;          ///< Box-Muller uniforms
  std::vector<double> z_cos, z_sin;    ///< Box-Muller deviates
  std::vector<const Point2*> targets;  ///< jump shelf; null for a walk
};

/// One motion step over every particle of `b`: with probability
/// `jump_prob` a particle hops to a uniformly drawn shelf plus unit
/// Gaussian noise per axis, otherwise it takes a random-walk step of
/// standard deviation `sigma` per axis. Draws from `rng` in the order the
/// header comment states; the Gaussians come from the active tier's
/// box_muller kernel.
void MoveParticles(const std::vector<Point2>& shelves, double sigma,
                   double jump_prob, common::Rng* rng, MotionScratch* scratch,
                   ObjectBelief* b);

/// \brief Factored per-object particle filter with spatial indexing and
/// particle compression.
class FactoredParticleFilter {
 public:
  FactoredParticleFilter(size_t num_objects,
                         std::vector<Point2> shelf_positions,
                         const SensingModel& sensing,
                         const FilterOptions& options);

  /// Assimilate one reading. Returns the number of object beliefs updated
  /// (the candidate-set size — the quantity spatial indexing shrinks).
  size_t ProcessReading(const Reading& reading);

  size_t num_objects() const { return beliefs_.size(); }
  const ObjectBelief& belief(uint32_t id) const { return beliefs_[id]; }
  Point2 EstimateMean(uint32_t id) const { return beliefs_[id].Mean(); }

  /// Mean Euclidean error of the location estimates against ground truth,
  /// over objects detected at least once and last seen at or after
  /// `seen_since_s` (Fig 3a metric; the default includes every object
  /// ever detected).
  double MeanErrorAgainst(const std::vector<Point2>& truth,
                          double seen_since_s = -1.0,
                          uint64_t min_detections = 1) const;

  /// Total particles currently allocated (compression's effect).
  size_t TotalParticles() const;

 private:
  void InitBelief(uint32_t id);
  void MotionUpdate(ObjectBelief* b, double now_s);
  void MeasurementUpdate(ObjectBelief* b, const Reading& reading,
                         double cos_heading, double sin_heading,
                         bool detected);
  void ResampleIfNeeded(ObjectBelief* b);
  /// Returns the belief's mean after any change it made.
  Point2 CompressOrExpand(ObjectBelief* b);
  void RecoverAroundReader(ObjectBelief* b, const Reading& reading);
  void ReindexObject(uint32_t id, const Point2& old_mean,
                     const Point2& new_mean);
  void CandidateObjects(const Reading& reading,
                        std::vector<uint32_t>* out) const;
  size_t CellOf(const Point2& p) const;

  std::vector<Point2> shelves_;
  SensingModel sensing_;
  stats::simd::LogisticDetection detection_;  ///< sensing_ for the kernel
  FilterOptions opts_;
  common::Rng rng_;
  std::vector<ObjectBelief> beliefs_;
  std::vector<Point2> belief_means_;
  // Grid index over belief means.
  double cell_ft_;
  size_t grid_w_, grid_h_;
  double area_w_, area_h_;
  std::vector<std::vector<uint32_t>> grid_;
  // Scratch reused from reading to reading, so the per-reading passes
  // allocate no temporaries.
  MotionScratch motion_scratch_;
  std::vector<double> probs_;             ///< detection prob per particle
  std::vector<double> resample_xs_, resample_ys_;
  std::vector<size_t> order_;             ///< compression ranking
  std::vector<uint32_t> candidates_, detected_;
};

/// \brief Joint-state baseline particle filter.
class JointParticleFilter {
 public:
  JointParticleFilter(size_t num_objects, std::vector<Point2> shelf_positions,
                      const SensingModel& sensing,
                      const FilterOptions& options);

  void ProcessReading(const Reading& reading);

  Point2 EstimateMean(uint32_t id) const;
  double MeanErrorAgainst(const std::vector<Point2>& truth) const;

 private:
  struct JointParticle {
    std::vector<Point2> positions;  // one per object
  };

  std::vector<Point2> shelves_;
  SensingModel sensing_;
  FilterOptions opts_;
  common::Rng rng_;
  std::vector<JointParticle> particles_;
  std::vector<double> weights_;
  double last_update_s_ = 0.0;
  std::vector<bool> ever_detected_;
};

}  // namespace rfid
}  // namespace usp

#endif  // USP_RFID_PARTICLE_FILTER_H_
