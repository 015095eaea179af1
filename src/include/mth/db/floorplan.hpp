#pragma once
// Floorplan: die/core outline and cell rows.
//
// Per the N-well sharing rule (paper §II), rows come in *pairs* of equal
// track-height; the RAP operates on pair indices. Row 2k and 2k+1 always
// form pair k, stacked bottom-up.

#include <vector>

#include "mth/db/tech.hpp"
#include "mth/util/geometry.hpp"

namespace mth {

/// One physical cell row.
struct Row {
  Dbu y = 0;         ///< bottom edge
  Dbu height = 0;
  Dbu x0 = 0;        ///< left edge of placeable span
  Dbu x1 = 0;        ///< right edge (exclusive)
  TrackHeight track_height = TrackHeight::H6T;

  Dbu width() const { return x1 - x0; }
  Dbu y_top() const { return y + height; }
  Dbu y_center() const { return y + height / 2; }
};

class Floorplan {
 public:
  Floorplan() = default;

  /// Uniform-height floorplan (mLEF space): `num_pairs` pairs of rows of
  /// height `row_height`, spanning the given core width.
  static Floorplan make_uniform(Rect core, int num_pairs, Dbu row_height,
                                TrackHeight th, Dbu site_width);

  /// Mixed-height floorplan: pair k takes height `pair_heights[k]` per row
  /// and track-height `pair_th[k]`; pairs are stacked from core.lo.y.
  static Floorplan make_mixed(Rect core_xspan, Dbu core_bottom,
                              const std::vector<TrackHeight>& pair_th,
                              const Tech& tech, Dbu site_width);

  const Rect& core() const { return core_; }
  Dbu site_width() const { return site_width_; }

  int num_rows() const { return static_cast<int>(rows_.size()); }
  int num_pairs() const { return num_rows() / 2; }
  const Row& row(int i) const { return rows_.at(static_cast<std::size_t>(i)); }
  const std::vector<Row>& rows() const { return rows_; }

  /// The two physical rows of pair `p` are rows 2p and 2p+1.
  const Row& pair_lower(int p) const { return row(2 * p); }
  const Row& pair_upper(int p) const { return row(2 * p + 1); }
  TrackHeight pair_track_height(int p) const { return pair_lower(p).track_height; }
  /// Vertical center of pair p (the y(r) of the RAP cost function).
  Dbu pair_y_center(int p) const {
    return (pair_lower(p).y + pair_upper(p).y_top()) / 2;
  }
  /// Pair centers in pair order (ascending y).
  std::vector<Dbu> pair_y_centers() const;
  /// Width capacity of pair p = sum of its two row widths (w(r) in Eq. 4).
  Dbu pair_capacity() const { return 2 * (core_.width()); }

  /// Index of the row whose [y, y+height) span contains `y`; clamps to the
  /// nearest row when outside the core.
  int row_at_y(Dbu y) const;
  /// Pair of the row containing `y` (row_at_y's clamping applies).
  int pair_at_y(Dbu y) const { return row_at_y(y) / 2; }
  /// The row of pair p whose center is nearer `y`; ties go to the lower row.
  const Row& nearer_row(int p, Dbu y) const;

  /// Sites per row.
  int sites_per_row() const {
    return static_cast<int>(core_.width() / site_width_);
  }

  void check() const;

 private:
  Rect core_;
  Dbu site_width_ = 54;
  std::vector<Row> rows_;
};

}  // namespace mth
