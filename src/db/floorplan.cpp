#include "mth/db/floorplan.hpp"

#include <algorithm>
#include <cstdlib>

#include "mth/util/error.hpp"

namespace mth {

Floorplan Floorplan::make_uniform(Rect core, int num_pairs, Dbu row_height,
                                  TrackHeight th, Dbu site_width) {
  MTH_ASSERT(num_pairs > 0 && row_height > 0 && site_width > 0,
             "floorplan: bad uniform parameters");
  Floorplan fp;
  fp.site_width_ = site_width;
  const Dbu width = snap_down(core.width(), site_width);
  MTH_ASSERT(width > 0, "floorplan: core narrower than one site");
  fp.rows_.reserve(static_cast<std::size_t>(num_pairs) * 2);
  Dbu y = core.lo.y;
  for (int p = 0; p < num_pairs; ++p) {
    for (int k = 0; k < 2; ++k) {
      fp.rows_.push_back(Row{y, row_height, core.lo.x, core.lo.x + width, th});
      y += row_height;
    }
  }
  fp.core_ = Rect{core.lo, {core.lo.x + width, y}};
  fp.check();
  return fp;
}

Floorplan Floorplan::make_mixed(Rect core_xspan, Dbu core_bottom,
                                const std::vector<TrackHeight>& pair_th,
                                const Tech& tech, Dbu site_width) {
  MTH_ASSERT(!pair_th.empty(), "floorplan: no pairs");
  Floorplan fp;
  fp.site_width_ = site_width;
  const Dbu width = snap_down(core_xspan.width(), site_width);
  MTH_ASSERT(width > 0, "floorplan: core narrower than one site");
  fp.rows_.reserve(pair_th.size() * 2);
  Dbu y = core_bottom;
  for (TrackHeight th : pair_th) {
    const Dbu h = tech.row_height(th);
    for (int k = 0; k < 2; ++k) {
      fp.rows_.push_back(Row{y, h, core_xspan.lo.x, core_xspan.lo.x + width, th});
      y += h;
    }
  }
  fp.core_ = Rect{{core_xspan.lo.x, core_bottom}, {core_xspan.lo.x + width, y}};
  fp.check();
  return fp;
}

std::vector<Dbu> Floorplan::pair_y_centers() const {
  std::vector<Dbu> ys(static_cast<std::size_t>(num_pairs()));
  for (int p = 0; p < num_pairs(); ++p) {
    ys[static_cast<std::size_t>(p)] = pair_y_center(p);
  }
  return ys;
}

const Row& Floorplan::nearer_row(int p, Dbu y) const {
  const Row& lower = pair_lower(p);
  const Row& upper = pair_upper(p);
  return std::llabs(lower.y_center() - y) <= std::llabs(upper.y_center() - y)
             ? lower
             : upper;
}

int Floorplan::row_at_y(Dbu y) const {
  MTH_ASSERT(!rows_.empty(), "floorplan: empty");
  if (y < rows_.front().y) return 0;
  if (y >= rows_.back().y_top()) return num_rows() - 1;
  // Binary search on row bottom edges (rows are stacked, gap-free).
  int lo = 0;
  int hi = num_rows() - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (rows_[static_cast<std::size_t>(mid)].y <= y) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

void Floorplan::check() const {
  MTH_ASSERT(!rows_.empty(), "floorplan: no rows");
  MTH_ASSERT(num_rows() % 2 == 0,
             "floorplan: odd row count violates the N-well pairing rule");
  Dbu y = core_.lo.y;
  for (int i = 0; i < num_rows(); ++i) {
    const Row& r = rows_[static_cast<std::size_t>(i)];
    MTH_ASSERT(r.y == y, "floorplan: rows not gap-free at row " + std::to_string(i));
    MTH_ASSERT(r.height > 0 && r.x1 > r.x0, "floorplan: degenerate row");
    MTH_ASSERT(r.width() % site_width_ == 0, "floorplan: row off site grid");
    y = r.y_top();
  }
  MTH_ASSERT(y == core_.hi.y, "floorplan: rows do not fill the core height");
  for (int p = 0; p < num_pairs(); ++p) {
    MTH_ASSERT(pair_lower(p).track_height == pair_upper(p).track_height,
               "floorplan: mixed track-heights inside pair " + std::to_string(p));
    MTH_ASSERT(pair_lower(p).height == pair_upper(p).height,
               "floorplan: mixed heights inside pair " + std::to_string(p));
  }
}

}  // namespace mth
