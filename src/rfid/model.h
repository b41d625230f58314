// RFID warehouse simulation substrate (DESIGN.md substitution for the
// paper's physical deployment): shelves at known locations, tagged objects
// that occasionally move between shelves, and a mobile reader on a
// serpentine scan trajectory whose detections follow a logistic sensing
// model in distance and angle (§4.1: "a distribution for RFID sensing can
// be devised using logistic regression over factors such as the distance
// and angle between the reader and an object").

#ifndef USP_RFID_MODEL_H_
#define USP_RFID_MODEL_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace usp {
namespace rfid {

/// 2D point in feet (the paper reports inference error "in the XY plane
/// (ft)"; the vertical axis is carried as a per-shelf level attribute and
/// does not enter the filter).
struct Point2 {
  double x = 0.0;
  double y = 0.0;

  Point2 operator+(const Point2& o) const { return {x + o.x, y + o.y}; }
  Point2 operator-(const Point2& o) const { return {x - o.x, y - o.y}; }
};

inline double Distance(const Point2& a, const Point2& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Logistic sensing model: detection probability of a tag at distance d
/// (ft) and bearing angle theta (rad) from the reader's heading.
struct SensingModel {
  double max_read_prob = 0.8;   ///< detection prob at point-blank, on-axis
  double range_midpoint = 10.0; ///< distance at which the logistic halves
  double range_steepness = 0.6; ///< 1/ft steepness of the distance rolloff
  double fov_cos = -0.2;        ///< cos of the half field-of-view
  double fov_steepness = 6.0;   ///< steepness of the angular rolloff
  double hard_range = 25.0;     ///< beyond this the probability is 0

  /// P(tag detected | reader at `reader` heading `heading_rad`, tag at
  /// `tag`).
  double DetectionProbability(const Point2& reader, double heading_rad,
                              const Point2& tag) const;
  /// The same probability, with the heading given by its cosine and sine:
  /// a caller scoring many tags against one reading computes them once.
  double DetectionProbability(const Point2& reader, double cos_heading,
                              double sin_heading, const Point2& tag) const;
};

/// Static warehouse geometry + dynamics parameters.
struct WarehouseConfig {
  double width_ft = 100.0;
  double height_ft = 100.0;
  size_t shelf_rows = 10;
  size_t shelf_cols = 10;
  size_t num_objects = 100;
  double object_move_prob_per_scan = 0.002;  ///< chance to hop shelves
  double reader_speed_ftps = 5.0;
  double scan_period_s = 0.5;   ///< one Reading per scan
  SensingModel sensing;
  uint64_t seed = 1234;
};

/// One mobile-reader scan: everything the device reports (§2.1: "tag ids
/// of observed objects, tag ids of observed shelves, and optionally the
/// location of the reader").
struct Reading {
  double time_s = 0.0;
  Point2 reader_pos;            ///< reported (noisy in reality; exact here —
                                ///< reader GPS noise folds into the sensing
                                ///< model)
  double reader_heading_rad = 0.0;
  std::vector<uint32_t> observed_objects;  ///< tag ids
  std::vector<uint32_t> observed_shelves;  ///< tag ids (known locations)
};

/// \brief Ground-truth world simulator producing the Reading stream.
class WarehouseSimulator {
 public:
  explicit WarehouseSimulator(const WarehouseConfig& config);

  const WarehouseConfig& config() const { return config_; }
  const std::vector<Point2>& shelf_positions() const { return shelves_; }
  const std::vector<Point2>& true_object_positions() const {
    return objects_;
  }
  size_t num_shelves() const { return shelves_.size(); }

  /// Advance one scan period and produce the next reading. Object moves
  /// happen between scans; ids of objects that moved this step are
  /// reported in `moved` when non-null (used by tests/benches).
  Reading Step(std::vector<uint32_t>* moved = nullptr);

  double now_s() const { return now_s_; }

 private:
  void AdvanceReader();
  void MaybeMoveObjects(std::vector<uint32_t>* moved);
  void RebuildObjectIndex();
  std::vector<uint32_t> NearbyObjects(const Point2& p, double radius) const;

  WarehouseConfig config_;
  common::Rng rng_;
  std::vector<Point2> shelves_;
  std::vector<Point2> objects_;
  // Reader state: serpentine path over rows.
  Point2 reader_pos_;
  double reader_heading_ = 0.0;
  bool reader_moving_right_ = true;
  double row_y_ = 0.0;
  double now_s_ = 0.0;
  // Uniform grid over true object positions for O(1) range queries.
  double cell_ft_ = 10.0;
  size_t grid_w_ = 0, grid_h_ = 0;
  std::vector<std::vector<uint32_t>> grid_;
  bool index_dirty_ = true;
};

}  // namespace rfid
}  // namespace usp

#endif  // USP_RFID_MODEL_H_
