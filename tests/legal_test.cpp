// Abacus legalization tests: legality invariants, displacement minimality
// trends, row-constraint filters, swap polish.

#include <gtest/gtest.h>

#include "mth/db/metrics.hpp"
#include "mth/db/mlef.hpp"
#include "mth/db/rowassign.hpp"
#include "mth/legal/abacus.hpp"
#include "mth/legal/polish.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/place/placer.hpp"
#include "mth/synth/generator.hpp"
#include "mth/util/rng.hpp"

namespace mth::legal {
namespace {

Design make_placed_design(const char* name, double scale, std::uint64_t seed = 7) {
  auto lib = liberty::library_ref();
  synth::GeneratorOptions gen;
  gen.scale = scale;
  gen.seed = seed;
  Design d = synth::generate_testcase(synth::spec_by_name(name), lib, gen).design;
  double minority_area = 0, total = 0;
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    const double a = static_cast<double>(d.master_of(i).area());
    total += a;
    if (d.is_minority(i)) minority_area += a;
  }
  static std::vector<std::shared_ptr<MlefTransform>> keep_alive;
  keep_alive.push_back(std::make_shared<MlefTransform>(lib, minority_area / total));
  keep_alive.back()->to_mlef(d);
  place::build_uniform_floorplan(d, 0.6, 1.0);
  place::GlobalPlaceOptions gp;
  gp.max_iterations = 10;
  place::global_place(d, gp);
  return d;
}

TEST(Abacus, ProducesLegalPlacement) {
  Design d = make_placed_design("aes_360", 0.05);
  const auto r = abacus_legalize(d, {});
  ASSERT_TRUE(r.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
  EXPECT_EQ(count_overlaps(d), 0);
}

TEST(Abacus, ReportsDisplacement) {
  Design d = make_placed_design("aes_360", 0.05);
  const auto snap = placement_snapshot(d);
  const auto r = abacus_legalize(d, {});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.total_displacement, total_displacement(d, snap));
  EXPECT_GE(r.max_displacement, 0);
  EXPECT_LE(r.max_displacement, r.total_displacement);
}

TEST(Abacus, AlreadyLegalIsNearNoop) {
  Design d = make_placed_design("aes_400", 0.04);
  abacus_legalize(d, {});
  const auto snap = placement_snapshot(d);
  const auto r = abacus_legalize(d, {});
  ASSERT_TRUE(r.success);
  // Re-legalizing a legal placement should barely move anything.
  EXPECT_LE(total_displacement(d, snap),
            static_cast<Dbu>(d.netlist.num_instances()) * 60);
}

TEST(Abacus, SmallPerturbationSmallMove) {
  Design d = make_placed_design("aes_400", 0.04);
  abacus_legalize(d, {});
  // Nudge 10 cells by one site; Abacus must restore legality cheaply.
  Rng rng(3);
  for (int k = 0; k < 10; ++k) {
    const InstId i = static_cast<InstId>(
        rng.uniform_int(0, d.netlist.num_instances() - 1));
    d.netlist.instance(i).pos.x += 27;  // off the site grid
  }
  const auto r = abacus_legalize(d, {});
  ASSERT_TRUE(r.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
}

TEST(Abacus, RowFilterRespected) {
  Design d = make_placed_design("aes_300", 0.05);
  const int pairs = d.floorplan.num_pairs();
  RowAssignment ra = RowAssignment::all_majority(pairs);
  // Mark every 3rd pair minority (comfortable capacity for aes_300's 28%
  // minority at 60% utilization).
  for (int p = 1; p < pairs; p += 3) ra.pair_is_minority[static_cast<std::size_t>(p)] = true;

  const auto r = abacus_legalize(d, row_class_options(d, ra));
  ASSERT_TRUE(r.success);
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    const int row = d.floorplan.row_at_y(d.netlist.instance(i).pos.y);
    EXPECT_EQ(d.is_minority(i), ra.is_minority_row(row))
        << d.netlist.instance(i).name;
  }
  EXPECT_EQ(count_overlaps(d), 0);
}

TEST(RowClassLegalize, SeedsIntoNearestAdmissiblePair) {
  // Four 7.5T pairs centered at 270, 810, 1350 and 1890; pairs 0 and 2 are
  // minority. A minority cell centered in majority pair 1 is 540 from both
  // minority pairs: it seeds into the lower one, on that pair's upper row
  // (center 405, nearer 810 than the lower row's 135).
  auto lib = liberty::library_ref();
  Design d;
  d.library = lib;
  const Tech& tech = lib->tech();
  const int inv7 =
      find_asap7_master(*lib, CellFunc::Inv, 1, TrackHeight::H75T, Vt::RVT);
  const InstId x = d.netlist.add_instance("x", inv7, {540, 810 - 135});
  d.floorplan = Floorplan::make_uniform(Rect{{0, 0}, {5400, 8 * 270}}, 4,
                                        tech.row_height_75t, TrackHeight::H75T,
                                        54);
  RowAssignment ra = RowAssignment::all_majority(4);
  ra.pair_is_minority[0] = ra.pair_is_minority[2] = true;
  const auto r = row_class_legalize(d, ra);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(d.netlist.instance(x).pos, (Point{540, 270}));
  // Already admissible: left where it is.
  EXPECT_EQ(row_class_legalize(d, ra).total_displacement, 0);
}

TEST(Abacus, RespectTrackHeightInMixedFloorplan) {
  // Build a mixed floorplan and place a few mixed-height cells directly.
  auto lib = liberty::library_ref();
  Design d;
  d.library = lib;
  const Tech& tech = lib->tech();
  const int inv6 = find_asap7_master(*lib, CellFunc::Inv, 1, TrackHeight::H6T, Vt::RVT);
  const int inv7 = find_asap7_master(*lib, CellFunc::Inv, 2, TrackHeight::H75T, Vt::RVT);
  for (int k = 0; k < 12; ++k) {
    d.netlist.add_instance("a" + std::to_string(k), k % 3 == 0 ? inv7 : inv6,
                           {k * 200, 300});
  }
  d.floorplan = Floorplan::make_mixed(
      Rect{{0, 0}, {10800, 1}}, 0,
      {TrackHeight::H6T, TrackHeight::H75T, TrackHeight::H6T}, tech, 54);
  AbacusOptions opt;
  opt.respect_track_height = true;
  const auto r = abacus_legalize(d, opt);
  ASSERT_TRUE(r.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why, /*require_track_match=*/true)) << why;
}

TEST(Abacus, FailsGracefullyWhenNoRowFits) {
  // Single 6T row pair but a 7.5T cell with height enforcement: impossible.
  auto lib = liberty::library_ref();
  Design d;
  d.library = lib;
  const int inv7 =
      find_asap7_master(*lib, CellFunc::Inv, 1, TrackHeight::H75T, Vt::RVT);
  d.netlist.add_instance("x", inv7, {0, 0});
  d.floorplan = Floorplan::make_uniform(Rect{{0, 0}, {1080, 432}}, 1,
                                        lib->tech().row_height_6t,
                                        TrackHeight::H6T, 54);
  AbacusOptions opt;
  opt.respect_track_height = true;
  const auto r = abacus_legalize(d, opt);
  EXPECT_FALSE(r.success);
}

TEST(Abacus, CapacityOverflowHandledAcrossRows) {
  // More cell width than one row: cells must spill to other rows, stay legal.
  auto lib = liberty::library_ref();
  Design d;
  d.library = lib;
  const int buf6 = find_asap7_master(*lib, CellFunc::Buf, 4, TrackHeight::H6T, Vt::RVT);
  const Dbu w = lib->master(buf6).width;
  const int per_row = static_cast<int>(2160 / w);
  for (int k = 0; k < per_row * 3; ++k) {
    d.netlist.add_instance("b" + std::to_string(k), buf6, {0, 0});  // all at origin
  }
  d.floorplan = Floorplan::make_uniform(Rect{{0, 0}, {2160, 4 * 216}}, 2,
                                        216, TrackHeight::H6T, 54);
  const auto r = abacus_legalize(d, {});
  ASSERT_TRUE(r.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
}

TEST(SwapPolish, NeverIncreasesHpwl) {
  Design d = make_placed_design("aes_360", 0.05);
  abacus_legalize(d, {});
  const Dbu before = total_hpwl(d);
  const int swaps = swap_polish(d);
  const Dbu after = total_hpwl(d);
  EXPECT_LE(after, before);
  EXPECT_GE(swaps, 0);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
}

TEST(SwapPolish, ConvergeStopsAtFixpoint) {
  Design d = make_placed_design("aes_400", 0.04);
  abacus_legalize(d, {});
  swap_polish_converge(d, 10);
  // A converged placement admits no further improving swap.
  EXPECT_EQ(swap_polish(d), 0);
}

TEST(SwapPolish, PreservesLegalityWithMixedWidths) {
  Design d = make_placed_design("des3_250", 0.03);
  abacus_legalize(d, {});
  swap_polish_converge(d);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
  EXPECT_EQ(count_overlaps(d), 0);
}

// Parameterized legality sweep across testcases and seeds.
class AbacusSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(AbacusSweep, LegalAndBounded) {
  const auto [name, seed] = GetParam();
  Design d = make_placed_design(name, 0.03, static_cast<std::uint64_t>(seed));
  const auto snap = placement_snapshot(d);
  const auto r = abacus_legalize(d, {});
  ASSERT_TRUE(r.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
  // Legalization from a spread global placement moves each cell a bounded
  // distance on average (< 8 row heights here, generous).
  const double avg =
      static_cast<double>(total_displacement(d, snap)) / d.netlist.num_instances();
  EXPECT_LT(avg, 8.0 * 270.0) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AbacusSweep,
    ::testing::Combine(::testing::Values("aes_320", "ldpc_350", "vga_270"),
                       ::testing::Values(1, 2)));

}  // namespace
}  // namespace mth::legal
