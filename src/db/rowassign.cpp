#include "mth/db/rowassign.hpp"

#include <cstdint>
#include <cstdlib>

namespace mth {

int nearest_pair_of_class(const Floorplan& fp, const RowAssignment* ra,
                          bool minority, Dbu y) {
  int best = -1;
  Dbu best_d = INT64_MAX;
  for (int p = 0; p < fp.num_pairs(); ++p) {
    if (ra != nullptr && ra->is_minority_pair(p) != minority) continue;
    const Dbu d = std::llabs(fp.pair_y_center(p) - y);
    if (d < best_d) {
      best_d = d;
      best = p;
    }
  }
  return best;
}

std::vector<int> claim_nearest_pairs(const std::vector<Dbu>& pair_y,
                                     const std::vector<Dbu>& want_y,
                                     const std::vector<int>& order,
                                     std::vector<char>& taken) {
  MTH_ASSERT(taken.size() == pair_y.size(), "rowassign: taken / pair mismatch");
  std::vector<int> claimed(want_y.size(), -1);
  for (const int w : order) {
    const Dbu y = want_y[static_cast<std::size_t>(w)];
    int best = -1;
    Dbu best_d = INT64_MAX;
    for (std::size_t p = 0; p < pair_y.size(); ++p) {
      if (taken[p]) continue;
      const Dbu d = std::llabs(pair_y[p] - y);
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(p);
      }
    }
    if (best < 0) continue;
    taken[static_cast<std::size_t>(best)] = 1;
    claimed[static_cast<std::size_t>(w)] = best;
  }
  return claimed;
}

}  // namespace mth
