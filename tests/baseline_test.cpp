// Baseline [10] (Lin & Chang) tests: N_minR sizing, k-means row assignment,
// row-constrained legalization invariants.

#include <gtest/gtest.h>

#include "mth/baseline/linchang.hpp"
#include "mth/db/metrics.hpp"
#include "mth/flows/flow.hpp"

namespace mth::baseline {
namespace {

const flows::PreparedCase& small_case() {
  static const flows::PreparedCase pc = [] {
    flows::FlowOptions opt;
    opt.scale = 0.05;
    return flows::prepare_case(synth::spec_by_name("aes_300"), opt);
  }();
  return pc;
}

TEST(AutoMinorityPairs, CoversDemand) {
  const auto& pc = small_case();
  const int n = auto_minority_pairs(pc.initial, *pc.original_library, 0.8);
  ASSERT_GE(n, 1);
  ASSERT_LT(n, pc.initial.floorplan.num_pairs());
  // Capacity at the fill target must cover the original-width demand.
  Dbu demand = 0;
  for (InstId i = 0; i < pc.initial.netlist.num_instances(); ++i) {
    const CellMaster& m =
        pc.original_library->master(pc.initial.netlist.instance(i).master);
    if (m.track_height == TrackHeight::H75T) demand += m.width;
  }
  const Dbu cap = static_cast<Dbu>(n) * pc.initial.floorplan.pair_capacity();
  EXPECT_GE(static_cast<double>(cap) * 0.8, static_cast<double>(demand) - 1.0);
}

TEST(AutoMinorityPairs, RejectsOnePairFloorplan) {
  // N_minR must leave a majority pair: 1 <= N_minR < pairs has no solution.
  const auto& pc = small_case();
  Design d = pc.initial;
  const Floorplan& fp = pc.initial.floorplan;
  d.floorplan = Floorplan::make_uniform(fp.core(), 1, fp.row(0).height,
                                        fp.row(0).track_height, fp.site_width());
  EXPECT_THROW(auto_minority_pairs(d, *pc.original_library, 0.8), Error);
}

TEST(AutoMinorityPairs, TighterFillNeedsMoreRows) {
  const auto& pc = small_case();
  const int loose = auto_minority_pairs(pc.initial, *pc.original_library, 1.0);
  const int tight = auto_minority_pairs(pc.initial, *pc.original_library, 0.5);
  EXPECT_GE(tight, loose);
}

TEST(KmeansAssign, ExactRowBudget) {
  const auto& pc = small_case();
  const KmeansAssignment ka = assign_rows_kmeans(pc.initial, pc.n_min_pairs);
  EXPECT_EQ(ka.rows.num_minority(), pc.n_min_pairs);
  EXPECT_EQ(ka.rows.num_pairs(), pc.initial.floorplan.num_pairs());
  EXPECT_EQ(ka.minority_cells.size(), ka.cell_pair.size());
  EXPECT_EQ(static_cast<int>(ka.minority_cells.size()),
            pc.initial.num_minority());
}

TEST(KmeansAssign, BindingTargetsMinorityPairs) {
  const auto& pc = small_case();
  const KmeansAssignment ka = assign_rows_kmeans(pc.initial, pc.n_min_pairs);
  for (int p : ka.cell_pair) {
    ASSERT_GE(p, 0);
    EXPECT_TRUE(ka.rows.is_minority_pair(p));
  }
}

TEST(KmeansAssign, RowsTrackMinorityMass) {
  // Minority rows should sit within the vertical extent of minority cells.
  const auto& pc = small_case();
  const KmeansAssignment ka = assign_rows_kmeans(pc.initial, pc.n_min_pairs);
  Dbu lo = INT64_MAX, hi = INT64_MIN;
  for (InstId i : ka.minority_cells) {
    const Dbu y = pc.initial.netlist.instance(i).pos.y;
    lo = std::min(lo, y);
    hi = std::max(hi, y);
  }
  const Floorplan& fp = pc.initial.floorplan;
  for (int p = 0; p < fp.num_pairs(); ++p) {
    if (!ka.rows.is_minority_pair(p)) continue;
    EXPECT_GE(fp.pair_y_center(p), lo - 4 * 540);
    EXPECT_LE(fp.pair_y_center(p), hi + 4 * 540);
  }
}

TEST(Legalize, RowConstraintHolds) {
  const auto& pc = small_case();
  Design d = pc.initial;
  const KmeansAssignment ka = assign_rows_kmeans(d, pc.n_min_pairs);
  const auto r = legalize_with_assignment(d, ka.rows, &ka.minority_cells,
                                          &ka.cell_pair);
  ASSERT_TRUE(r.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    const int row = d.floorplan.row_at_y(d.netlist.instance(i).pos.y);
    EXPECT_EQ(d.is_minority(i), ka.rows.is_minority_row(row))
        << d.netlist.instance(i).name;
  }
}

TEST(Legalize, WorksWithoutBinding) {
  const auto& pc = small_case();
  Design d = pc.initial;
  const KmeansAssignment ka = assign_rows_kmeans(d, pc.n_min_pairs);
  const auto r = legalize_with_assignment(d, ka.rows);
  ASSERT_TRUE(r.success);
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    const int row = d.floorplan.row_at_y(d.netlist.instance(i).pos.y);
    EXPECT_EQ(d.is_minority(i), ka.rows.is_minority_row(row));
  }
}

TEST(Legalize, DisplacementReasonable) {
  // The baseline minimizes movement: average displacement should stay within
  // a few row pitches of the initial placement.
  const auto& pc = small_case();
  Design d = pc.initial;
  const KmeansAssignment ka = assign_rows_kmeans(d, pc.n_min_pairs);
  legalize_with_assignment(d, ka.rows, &ka.minority_cells, &ka.cell_pair);
  const double avg = static_cast<double>(
                         total_displacement(d, pc.initial_positions)) /
                     d.netlist.num_instances();
  EXPECT_LT(avg, 6.0 * 2.0 * 270.0);
}

TEST(Legalize, AssignmentSizeMismatchRejected) {
  const auto& pc = small_case();
  Design d = pc.initial;
  RowAssignment wrong = RowAssignment::all_majority(3);
  EXPECT_THROW(legalize_with_assignment(d, wrong), Error);
}

// Parameterized: k-means assignment respects the budget on several cases.
class BaselineSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineSweep, BudgetAndLegality) {
  flows::FlowOptions opt;
  opt.scale = 0.03;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name(GetParam()), opt);
  Design d = pc.initial;
  const KmeansAssignment ka = assign_rows_kmeans(d, pc.n_min_pairs);
  EXPECT_EQ(ka.rows.num_minority(), pc.n_min_pairs);
  const auto r = legalize_with_assignment(d, ka.rows, &ka.minority_cells,
                                          &ka.cell_pair);
  ASSERT_TRUE(r.success) << GetParam();
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << GetParam() << ": " << why;
}

INSTANTIATE_TEST_SUITE_P(Cases, BaselineSweep,
                         ::testing::Values("aes_320", "ldpc_400", "des3_290",
                                           "fpu_4500"));

}  // namespace
}  // namespace mth::baseline
