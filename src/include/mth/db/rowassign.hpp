#pragma once
// Row assignment: the output of the RAP — which row *pairs* are minority
// (7.5T) rows. Shared by the ILP solver (rap/), the k-means baseline
// (baseline/) and both legalizations.

#include <vector>

#include "mth/db/floorplan.hpp"
#include "mth/util/error.hpp"

namespace mth {

struct RowAssignment {
  /// Index == row-pair index (Floorplan pair); true == minority (7.5T) pair.
  std::vector<bool> pair_is_minority;

  int num_pairs() const { return static_cast<int>(pair_is_minority.size()); }

  int num_minority() const {
    int n = 0;
    for (bool b : pair_is_minority) n += b ? 1 : 0;
    return n;
  }

  bool is_minority_pair(int p) const {
    return pair_is_minority.at(static_cast<std::size_t>(p));
  }
  /// Row-level view: physical row r belongs to pair r/2.
  bool is_minority_row(int row) const { return is_minority_pair(row / 2); }

  static RowAssignment all_majority(int pairs) {
    MTH_ASSERT(pairs > 0, "row assignment: no pairs");
    RowAssignment ra;
    ra.pair_is_minority.assign(static_cast<std::size_t>(pairs), false);
    return ra;
  }
};

/// Nearest pair to `y` (by pair y center) whose class under `ra` is
/// `minority`; ties go to the lower pair, -1 when no pair has that class. A
/// null `ra` admits every pair.
int nearest_pair_of_class(const Floorplan& fp, const RowAssignment* ra,
                          bool minority, Dbu y);

/// Each wanted y, visited in `order`, claims the unclaimed pair whose center
/// in `pair_y` is nearest (ties go to the lower pair) and marks it in
/// `taken`. Returns the pair claimed per wanted index; -1 when every pair
/// was already taken.
std::vector<int> claim_nearest_pairs(const std::vector<Dbu>& pair_y,
                                     const std::vector<Dbu>& want_y,
                                     const std::vector<int>& order,
                                     std::vector<char>& taken);

}  // namespace mth
