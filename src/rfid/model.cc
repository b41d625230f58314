#include "rfid/model.h"

#include <algorithm>
#include <cassert>

namespace usp {
namespace rfid {

double SensingModel::DetectionProbability(const Point2& reader,
                                          double heading_rad,
                                          const Point2& tag) const {
  return DetectionProbability(reader, std::cos(heading_rad),
                              std::sin(heading_rad), tag);
}

double SensingModel::DetectionProbability(const Point2& reader,
                                          double cos_heading,
                                          double sin_heading,
                                          const Point2& tag) const {
  const double d = Distance(reader, tag);
  if (d > hard_range) return 0.0;
  const double range_term =
      1.0 / (1.0 + std::exp(range_steepness * (d - range_midpoint)));
  double angle_term = 1.0;
  if (d > 1e-9) {
    const double cos_theta =
        ((tag.x - reader.x) * cos_heading + (tag.y - reader.y) * sin_heading) /
        d;
    angle_term = 1.0 / (1.0 + std::exp(-fov_steepness * (cos_theta - fov_cos)));
  }
  return max_read_prob * range_term * angle_term;
}

WarehouseSimulator::WarehouseSimulator(const WarehouseConfig& config)
    : config_(config), rng_(config.seed) {
  assert(config_.shelf_rows >= 1 && config_.shelf_cols >= 1);
  // Shelves on a regular grid, inset from the walls.
  const double dx = config_.width_ft / static_cast<double>(config_.shelf_cols);
  const double dy =
      config_.height_ft / static_cast<double>(config_.shelf_rows);
  for (size_t r = 0; r < config_.shelf_rows; ++r) {
    for (size_t c = 0; c < config_.shelf_cols; ++c) {
      shelves_.push_back({(static_cast<double>(c) + 0.5) * dx,
                          (static_cast<double>(r) + 0.5) * dy});
    }
  }
  // Objects start on random shelves with a small placement offset.
  objects_.resize(config_.num_objects);
  for (auto& obj : objects_) {
    const Point2& shelf = shelves_[rng_.UniformInt(shelves_.size())];
    obj = {shelf.x + rng_.Gaussian(0.0, 0.8),
           shelf.y + rng_.Gaussian(0.0, 0.8)};
  }
  reader_pos_ = {0.0, 0.5 * dy};
  row_y_ = reader_pos_.y;
  cell_ft_ = std::max(config_.sensing.hard_range / 2.0, 5.0);
  grid_w_ = static_cast<size_t>(config_.width_ft / cell_ft_) + 1;
  grid_h_ = static_cast<size_t>(config_.height_ft / cell_ft_) + 1;
  RebuildObjectIndex();
}

void WarehouseSimulator::RebuildObjectIndex() {
  grid_.assign(grid_w_ * grid_h_, {});
  for (uint32_t id = 0; id < objects_.size(); ++id) {
    const size_t cx = std::min(
        grid_w_ - 1, static_cast<size_t>(std::max(0.0, objects_[id].x) /
                                         cell_ft_));
    const size_t cy = std::min(
        grid_h_ - 1, static_cast<size_t>(std::max(0.0, objects_[id].y) /
                                         cell_ft_));
    grid_[cy * grid_w_ + cx].push_back(id);
  }
  index_dirty_ = false;
}

std::vector<uint32_t> WarehouseSimulator::NearbyObjects(const Point2& p,
                                                        double radius) const {
  std::vector<uint32_t> out;
  const int r_cells = static_cast<int>(radius / cell_ft_) + 1;
  const int cx = static_cast<int>(std::max(0.0, p.x) / cell_ft_);
  const int cy = static_cast<int>(std::max(0.0, p.y) / cell_ft_);
  for (int gy = cy - r_cells; gy <= cy + r_cells; ++gy) {
    if (gy < 0 || gy >= static_cast<int>(grid_h_)) continue;
    for (int gx = cx - r_cells; gx <= cx + r_cells; ++gx) {
      if (gx < 0 || gx >= static_cast<int>(grid_w_)) continue;
      const auto& cell = grid_[static_cast<size_t>(gy) * grid_w_ +
                               static_cast<size_t>(gx)];
      out.insert(out.end(), cell.begin(), cell.end());
    }
  }
  return out;
}

void WarehouseSimulator::AdvanceReader() {
  const double step = config_.reader_speed_ftps * config_.scan_period_s;
  const double row_dy =
      config_.height_ft / static_cast<double>(config_.shelf_rows);
  if (reader_moving_right_) {
    reader_pos_.x += step;
    reader_heading_ = 0.0;
    if (reader_pos_.x >= config_.width_ft) {
      reader_pos_.x = config_.width_ft;
      row_y_ += row_dy;
      reader_moving_right_ = false;
    }
  } else {
    reader_pos_.x -= step;
    reader_heading_ = M_PI;
    if (reader_pos_.x <= 0.0) {
      reader_pos_.x = 0.0;
      row_y_ += row_dy;
      reader_moving_right_ = true;
    }
  }
  if (row_y_ > config_.height_ft) row_y_ = 0.5 * row_dy;  // wrap to restart
  reader_pos_.y = row_y_;
}

void WarehouseSimulator::MaybeMoveObjects(std::vector<uint32_t>* moved) {
  // Expected number of movers is tiny; sample the count then pick ids, so
  // the cost stays O(movers), not O(objects), at 20k objects.
  const double expected =
      config_.object_move_prob_per_scan * static_cast<double>(objects_.size());
  size_t movers = 0;
  // Poisson via inversion for small means.
  double p = std::exp(-expected);
  double cum = p;
  const double u = rng_.Uniform();
  while (cum < u && movers < objects_.size()) {
    ++movers;
    p *= expected / static_cast<double>(movers);
    cum += p;
  }
  for (size_t i = 0; i < movers; ++i) {
    const uint32_t id =
        static_cast<uint32_t>(rng_.UniformInt(objects_.size()));
    const Point2& shelf = shelves_[rng_.UniformInt(shelves_.size())];
    objects_[id] = {shelf.x + rng_.Gaussian(0.0, 0.8),
                    shelf.y + rng_.Gaussian(0.0, 0.8)};
    if (moved != nullptr) moved->push_back(id);
    index_dirty_ = true;
  }
}

Reading WarehouseSimulator::Step(std::vector<uint32_t>* moved) {
  MaybeMoveObjects(moved);
  AdvanceReader();
  if (index_dirty_) RebuildObjectIndex();
  now_s_ += config_.scan_period_s;

  Reading reading;
  reading.time_s = now_s_;
  reading.reader_pos = reader_pos_;
  reading.reader_heading_rad = reader_heading_;
  const double cos_heading = std::cos(reader_heading_);
  const double sin_heading = std::sin(reader_heading_);
  // Candidate tags: within hard range of the reader.
  for (uint32_t id :
       NearbyObjects(reader_pos_, config_.sensing.hard_range)) {
    const double p = config_.sensing.DetectionProbability(
        reader_pos_, cos_heading, sin_heading, objects_[id]);
    if (p > 0.0 && rng_.Bernoulli(p)) {
      reading.observed_objects.push_back(id);
    }
  }
  for (uint32_t sid = 0; sid < shelves_.size(); ++sid) {
    const double p = config_.sensing.DetectionProbability(
        reader_pos_, cos_heading, sin_heading, shelves_[sid]);
    if (p > 0.0 && rng_.Bernoulli(p)) {
      reading.observed_shelves.push_back(sid);
    }
  }
  return reading;
}

}  // namespace rfid
}  // namespace usp
