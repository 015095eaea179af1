#pragma once
// Abacus detailed legalization (Spindler et al., ISPD 2008) and its
// row-constrained variant.
//
// Cells are scanned in x order and appended to candidate rows; within a row,
// cells form clusters whose optimal position is the weighted mean of member
// targets, merged backward until non-overlapping (the classic dynamic-
// programming recurrence). The row-constrained mode only admits a cell into
// rows matching its track-height — this is the legalization of the baseline
// [10] ("modifies the Abacus method under row-constraint") and of the final
// mixed-height snap after mLEF revert.

#include <functional>

#include "mth/db/design.hpp"
#include "mth/db/rowassign.hpp"

namespace mth::legal {

struct AbacusOptions {
  /// Restrict each cell to rows of its own track-height/height (row
  /// constraint). When false, any row of matching height is allowed.
  bool respect_track_height = false;
  /// Extra admission predicate (cell, row index) — the row-assignment-aware
  /// legalizations restrict minority cells to minority rows through this.
  std::function<bool(InstId, int)> row_filter;
  /// Relative weight of vertical displacement in row selection.
  double y_weight = 1.0;
  /// Initial row search window (rows above/below the target), doubled until
  /// a feasible row is found.
  int initial_row_window = 4;
};

struct AbacusResult {
  bool success = false;
  Dbu total_displacement = 0;  ///< vs. positions at call time
  Dbu max_displacement = 0;
};

/// Legalize the design in place: every cell lands on a site inside a row
/// (height-compatible; track-height-compatible when requested), no overlaps.
AbacusResult abacus_legalize(Design& design, const AbacusOptions& options = {});

/// Row-class admission under a row assignment: minority cells only enter
/// rows of minority pairs, majority cells only rows of majority pairs. The
/// filter reads `design` and `ra` by reference; both must outlive the
/// returned options.
AbacusOptions row_class_options(const Design& design, const RowAssignment& ra);

/// The row-class legalization shared by the baseline [10] and the proposed
/// fence-region legalization: every cell whose current pair has the wrong
/// class moves to the nearer row of the nearest admissible pair, then Abacus
/// runs under row_class_options.
AbacusResult row_class_legalize(Design& design, const RowAssignment& ra);

}  // namespace mth::legal
