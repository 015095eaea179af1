// Design database tests: tech, library invariants, netlist structure,
// floorplan geometry, metrics (HPWL / displacement / legality).

#include <gtest/gtest.h>

#include <algorithm>

#include "mth/db/design.hpp"
#include "mth/db/incremental_hpwl.hpp"
#include "mth/db/metrics.hpp"
#include "mth/db/rowassign.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/util/rng.hpp"

namespace mth {
namespace {

Design make_tiny_design() {
  // Two instances on a 2-pair uniform floorplan, one net between them.
  Design d;
  d.name = "tiny";
  d.library = liberty::library_ref();
  const Tech& tech = d.library->tech();
  const int inv = find_asap7_master(*d.library, CellFunc::Inv, 1,
                                    TrackHeight::H6T, Vt::RVT);
  const int nand2 = find_asap7_master(*d.library, CellFunc::Nand2, 1,
                                      TrackHeight::H6T, Vt::RVT);
  const InstId a = d.netlist.add_instance("a", inv, {0, 0});
  const InstId b = d.netlist.add_instance("b", nand2, {540, 216});
  const PortId pin = d.netlist.add_port("in", {0, 0}, true);
  const PortId pout = d.netlist.add_port("out", {2000, 800}, false);

  NetId n0 = d.netlist.add_net("n0");
  d.netlist.connect(n0, {kInvalidId, pin});
  d.netlist.connect(n0, {a, 0});
  NetId n1 = d.netlist.add_net("n1");
  d.netlist.connect(n1, {a, d.library->master(inv).output_pin()});
  d.netlist.connect(n1, {b, 0});
  NetId n2 = d.netlist.add_net("n2");
  d.netlist.connect(n2, {b, d.library->master(nand2).output_pin()});
  d.netlist.connect(n2, {kInvalidId, pout});

  d.floorplan = Floorplan::make_uniform(Rect{{0, 0}, {5400, 864}}, 2,
                                        tech.row_height_6t, TrackHeight::H6T,
                                        tech.site_width);
  return d;
}

TEST(Tech, DefaultsAreConsistent) {
  Tech t;
  EXPECT_NO_THROW(t.check());
  EXPECT_EQ(t.row_height(TrackHeight::H6T), 216);
  EXPECT_EQ(t.row_height(TrackHeight::H75T), 270);
  EXPECT_LT(t.row_height_6t, t.row_height_75t);
}

TEST(Tech, CheckRejectsBadHeights) {
  Tech t;
  t.row_height_75t = t.row_height_6t;  // must be strictly taller
  EXPECT_THROW(t.check(), Error);
}

TEST(Netlist, StructureAndCheck) {
  Design d = make_tiny_design();
  EXPECT_EQ(d.netlist.num_instances(), 2);
  EXPECT_EQ(d.netlist.num_nets(), 3);
  EXPECT_EQ(d.netlist.num_ports(), 2);
  EXPECT_NO_THROW(d.check());
}

TEST(Netlist, DriverMustBeFirst) {
  Design d = make_tiny_design();
  NetId bad = d.netlist.add_net("bad");
  // Sink first (instance input pin), driver second.
  d.netlist.connect(bad, {1, 0});
  const int out = d.library->master(d.netlist.instance(0).master).output_pin();
  d.netlist.connect(bad, {0, out});
  EXPECT_THROW(d.netlist.check(*d.library), Error);
}

TEST(Netlist, MultipleDriversRejected) {
  Design d = make_tiny_design();
  NetId bad = d.netlist.add_net("bad2");
  const int out0 = d.library->master(d.netlist.instance(0).master).output_pin();
  const int out1 = d.library->master(d.netlist.instance(1).master).output_pin();
  d.netlist.connect(bad, {0, out0});
  d.netlist.connect(bad, {1, out1});
  EXPECT_THROW(d.netlist.check(*d.library), Error);
}

TEST(Netlist, EmptyNetRejected) {
  Design d = make_tiny_design();
  d.netlist.add_net("empty");
  EXPECT_THROW(d.netlist.check(*d.library), Error);
}

TEST(Netlist, InstUsesReverseIndex) {
  Design d = make_tiny_design();
  const auto& uses = d.netlist.inst_uses();
  ASSERT_EQ(uses.size(), 2u);
  EXPECT_EQ(uses[0].size(), 2u);  // instance a touches n0 and n1
  EXPECT_EQ(uses[1].size(), 2u);  // instance b touches n1 and n2
}

TEST(Netlist, InstUsesInvalidatedByEdits) {
  Design d = make_tiny_design();
  (void)d.netlist.inst_uses();
  const InstId c = d.netlist.add_instance(
      "c", d.netlist.instance(0).master, {1080, 0});
  const auto& uses = d.netlist.inst_uses();
  ASSERT_EQ(uses.size(), 3u);
  EXPECT_TRUE(uses[static_cast<std::size_t>(c)].empty());
}

TEST(Netlist, PinPositionIncludesOffset) {
  Design d = make_tiny_design();
  const Instance& a = d.netlist.instance(0);
  const CellMaster& m = d.library->master(a.master);
  const Point p = d.netlist.pin_position({0, 0}, *d.library);
  EXPECT_EQ(p, a.pos + m.pins[0].offset);
}

TEST(Floorplan, UniformLayout) {
  const Floorplan& fp = make_tiny_design().floorplan;
  EXPECT_EQ(fp.num_rows(), 4);
  EXPECT_EQ(fp.num_pairs(), 2);
  EXPECT_EQ(fp.row(0).y, 0);
  EXPECT_EQ(fp.row(1).y, 216);
  EXPECT_EQ(fp.pair_upper(1).y_top(), 864);
  EXPECT_EQ(fp.pair_y_center(0), 216);
  EXPECT_EQ(fp.sites_per_row(), 100);
}

TEST(Floorplan, RowAtY) {
  const Floorplan& fp = make_tiny_design().floorplan;
  EXPECT_EQ(fp.row_at_y(0), 0);
  EXPECT_EQ(fp.row_at_y(215), 0);
  EXPECT_EQ(fp.row_at_y(216), 1);
  EXPECT_EQ(fp.row_at_y(863), 3);
  EXPECT_EQ(fp.row_at_y(-50), 0);     // clamped
  EXPECT_EQ(fp.row_at_y(100000), 3);  // clamped
}

TEST(Floorplan, PairGeometry) {
  const Floorplan& fp = make_tiny_design().floorplan;
  EXPECT_EQ(fp.pair_capacity(), 2 * 5400);
  EXPECT_EQ(fp.pair_y_centers(), (std::vector<Dbu>{216, 648}));
  EXPECT_EQ(fp.pair_at_y(431), 0);
  EXPECT_EQ(fp.pair_at_y(432), 1);
  EXPECT_EQ(fp.pair_at_y(-50), 0);  // clamped like row_at_y
}

TEST(Floorplan, NearerRowTiesToLowerRow) {
  // Pair 0 rows are centered at 108 and 324; y = 216 is equidistant.
  const Floorplan& fp = make_tiny_design().floorplan;
  EXPECT_EQ(fp.nearer_row(0, 216).y, 0);
  EXPECT_EQ(fp.nearer_row(0, 217).y, 216);
  EXPECT_EQ(fp.nearer_row(1, 0).y, 432);  // outside the pair: still its rows
}

TEST(Floorplan, MixedHeights) {
  Tech tech;
  const Floorplan fp = Floorplan::make_mixed(
      Rect{{0, 0}, {1080, 1}}, 0,
      {TrackHeight::H6T, TrackHeight::H75T, TrackHeight::H6T}, tech, 54);
  EXPECT_EQ(fp.num_pairs(), 3);
  EXPECT_EQ(fp.row(0).height, 216);
  EXPECT_EQ(fp.row(2).height, 270);
  EXPECT_EQ(fp.pair_track_height(1), TrackHeight::H75T);
  EXPECT_EQ(fp.core().height(), 2 * 216 + 2 * 270 + 2 * 216);
  // Rows stacked gap-free.
  EXPECT_EQ(fp.row(2).y, 432);
  EXPECT_EQ(fp.row(4).y, 432 + 540);
}

TEST(Floorplan, RowAtYMixedBinarySearch) {
  Tech tech;
  std::vector<TrackHeight> ths(10, TrackHeight::H6T);
  ths[3] = ths[7] = TrackHeight::H75T;
  const Floorplan fp =
      Floorplan::make_mixed(Rect{{0, 0}, {1080, 1}}, 0, ths, tech, 54);
  for (int r = 0; r < fp.num_rows(); ++r) {
    EXPECT_EQ(fp.row_at_y(fp.row(r).y), r);
    EXPECT_EQ(fp.row_at_y(fp.row(r).y_top() - 1), r);
  }
}

TEST(Metrics, NetAndTotalHpwl) {
  Design d = make_tiny_design();
  Dbu sum = 0;
  for (NetId n = 0; n < d.netlist.num_nets(); ++n) sum += net_hpwl(d, n);
  EXPECT_EQ(total_hpwl(d), sum);
  EXPECT_GT(sum, 0);
}

TEST(Metrics, ClockNetExcludedFromHpwl) {
  Design d = make_tiny_design();
  const NetId n1 = 1;
  const Dbu before = net_hpwl(d, n1);
  EXPECT_GT(before, 0);
  d.netlist.net(n1).is_clock = true;
  EXPECT_EQ(net_hpwl(d, n1), 0);
}

TEST(Metrics, DisplacementTracksMoves) {
  Design d = make_tiny_design();
  const auto snap = placement_snapshot(d);
  EXPECT_EQ(total_displacement(d, snap), 0);
  d.netlist.instance(0).pos.x += 108;
  d.netlist.instance(1).pos.y += 216;
  EXPECT_EQ(total_displacement(d, snap), 108 + 216);
}

TEST(Metrics, OverlapDetection) {
  Design d = make_tiny_design();
  EXPECT_EQ(count_overlaps(d), 0);
  d.netlist.instance(1).pos = d.netlist.instance(0).pos;  // stack them
  EXPECT_GT(count_overlaps(d), 0);
}

TEST(Metrics, LegalityChecks) {
  Design d = make_tiny_design();
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;

  Design off_grid = make_tiny_design();
  off_grid.netlist.instance(0).pos.x = 1;  // not a site multiple
  EXPECT_FALSE(placement_is_legal(off_grid));

  Design off_row = make_tiny_design();
  off_row.netlist.instance(0).pos.y = 100;  // between rows
  EXPECT_FALSE(placement_is_legal(off_row));

  Design outside = make_tiny_design();
  outside.netlist.instance(0).pos.x = -108;
  EXPECT_FALSE(placement_is_legal(outside));
}

TEST(Metrics, TrackHeightMismatchFlagged) {
  Design d = make_tiny_design();
  // Swap instance 0 to a 7.5T master: its height no longer matches 6T rows.
  d.netlist.instance(0).master = find_asap7_master(
      *d.library, CellFunc::Inv, 1, TrackHeight::H75T, Vt::RVT);
  std::string why;
  EXPECT_FALSE(placement_is_legal(d, &why, /*require_track_match=*/true));
  EXPECT_NE(why.find("height"), std::string::npos);
}

TEST(Design, MinorityCountAndWidths) {
  Design d = make_tiny_design();
  EXPECT_EQ(d.num_minority(), 0);
  d.netlist.instance(1).master = find_asap7_master(
      *d.library, CellFunc::Nand2, 2, TrackHeight::H75T, Vt::LVT);
  EXPECT_EQ(d.num_minority(), 1);
  EXPECT_GT(d.total_width(TrackHeight::H75T), 0);
  EXPECT_GT(d.total_cell_area(), 0);
}

TEST(RowAssignment, Basics) {
  RowAssignment ra = RowAssignment::all_majority(5);
  EXPECT_EQ(ra.num_pairs(), 5);
  EXPECT_EQ(ra.num_minority(), 0);
  ra.pair_is_minority[2] = true;
  EXPECT_EQ(ra.num_minority(), 1);
  EXPECT_TRUE(ra.is_minority_row(4));   // row 4 -> pair 2
  EXPECT_TRUE(ra.is_minority_row(5));
  EXPECT_FALSE(ra.is_minority_row(3));
}

TEST(RowAssignment, NearestPairOfClassTiesToLowerPair) {
  // Four pairs centered at 216, 648, 1080 and 1512; pairs 0 and 2 minority.
  const Floorplan fp = Floorplan::make_uniform(Rect{{0, 0}, {5400, 1728}}, 4,
                                               216, TrackHeight::H6T, 54);
  RowAssignment ra = RowAssignment::all_majority(4);
  ra.pair_is_minority[0] = ra.pair_is_minority[2] = true;
  EXPECT_EQ(nearest_pair_of_class(fp, &ra, true, 648), 0);    // 432 either way
  EXPECT_EQ(nearest_pair_of_class(fp, &ra, true, 649), 2);
  EXPECT_EQ(nearest_pair_of_class(fp, &ra, false, 1080), 1);  // 432 either way
  EXPECT_EQ(nearest_pair_of_class(fp, nullptr, true, 432), 0);
  EXPECT_EQ(nearest_pair_of_class(fp, nullptr, true, 1250), 2);  // any class
  const RowAssignment none = RowAssignment::all_majority(4);
  EXPECT_EQ(nearest_pair_of_class(fp, &none, true, 648), -1);
}

TEST(RowAssignment, ClaimGoesToEarlierWantInOrder) {
  const std::vector<Dbu> pair_y{216, 648, 1080};
  // Both wants are nearest pair 1; whichever comes first in `order` gets it.
  const std::vector<Dbu> want_y{650, 640};
  std::vector<char> taken(3, 0);
  EXPECT_EQ(claim_nearest_pairs(pair_y, want_y, {0, 1}, taken),
            (std::vector<int>{1, 0}));
  EXPECT_EQ(taken, (std::vector<char>{1, 1, 0}));
  taken.assign(3, 0);
  EXPECT_EQ(claim_nearest_pairs(pair_y, want_y, {1, 0}, taken),
            (std::vector<int>{2, 1}));
  // An equidistant want takes the lower free pair; none left gives -1.
  taken.assign(3, 0);
  EXPECT_EQ(claim_nearest_pairs(pair_y, {432, 432, 432, 432}, {0, 1, 2, 3},
                                taken),
            (std::vector<int>{0, 1, 2, -1}));
}

// --- IncrementalHpwl ------------------------------------------------------

/// Randomized multi-pin netlist: `n_inst` cells at random positions, `n_nets`
/// nets of degree 2-5 with distinct instances (driver first), the last net
/// marked as an ideal clock (excluded from HPWL). Dense enough that random
/// moves regularly land cells on net-bbox boundaries, exercising the
/// engine's exact-recompute slow path alongside the extend fast path.
Design make_random_design(int n_inst, int n_nets, std::uint64_t seed) {
  Design d;
  d.name = "random";
  d.library = liberty::library_ref();
  const Tech& tech = d.library->tech();
  const int inv = find_asap7_master(*d.library, CellFunc::Inv, 1,
                                    TrackHeight::H6T, Vt::RVT);
  Rng rng(seed);
  for (int i = 0; i < n_inst; ++i) {
    d.netlist.add_instance("c" + std::to_string(i), inv,
                           {rng.uniform_int(0, 40000) * 2,
                            rng.uniform_int(0, 20000) * 2});
  }
  const int out_pin = d.library->master(inv).output_pin();
  for (int n = 0; n < n_nets; ++n) {
    const NetId net = d.netlist.add_net("n" + std::to_string(n));
    const int degree = static_cast<int>(rng.uniform_int(2, 5));
    std::vector<InstId> picked;
    while (static_cast<int>(picked.size()) < degree) {
      const InstId i =
          static_cast<InstId>(rng.uniform_int(0, n_inst - 1));
      if (std::find(picked.begin(), picked.end(), i) == picked.end()) {
        picked.push_back(i);
      }
    }
    for (std::size_t j = 0; j < picked.size(); ++j) {
      d.netlist.connect(net, {picked[j], j == 0 ? out_pin : 0});
    }
    if (n == n_nets - 1) d.netlist.net(net).is_clock = true;
  }
  d.floorplan = Floorplan::make_uniform(Rect{{0, 0}, {90000, 43200}}, 100,
                                        tech.row_height_6t, TrackHeight::H6T,
                                        tech.site_width);
  return d;
}

TEST(IncrementalHpwl, MatchesFreshScanOnTinyDesign) {
  Design d = make_tiny_design();
  db::IncrementalHpwl eng(d);
  EXPECT_EQ(eng.total(), total_hpwl(d, 1));
  const Dbu t = eng.apply_move(0, {1080, 432});
  EXPECT_EQ(t, total_hpwl(d, 1));
  EXPECT_EQ(d.netlist.instance(0).pos, (Point{1080, 432}));
  eng.revert();
  EXPECT_EQ(d.netlist.instance(0).pos, (Point{0, 0}));
  EXPECT_EQ(eng.total(), total_hpwl(d, 1));
}

TEST(IncrementalHpwl, RandomMoveSequencesStayExact) {
  // The satellite property test: N random apply_move sequences — including
  // boundary-pin shrinks (moves pull extreme pins inward) and the clock-net
  // exclusion — never drift from a fresh total_hpwl() scan, bit-for-bit.
  Design d = make_random_design(60, 40, 99);
  db::IncrementalHpwl eng(d);
  Rng rng(7);
  for (int m = 0; m < 400; ++m) {
    const InstId i = static_cast<InstId>(rng.uniform_int(0, 59));
    const Point p{rng.uniform_int(0, 40000) * 2,
                  rng.uniform_int(0, 20000) * 2};
    const Dbu t = eng.apply_move(i, p);  // sequenced before the fresh scan
    ASSERT_EQ(t, total_hpwl(d, 1)) << "move " << m;
  }
  EXPECT_EQ(eng.moves(), 400);
  // A dense random workload must have hit both paths, or the test proves
  // less than it claims.
  EXPECT_GT(eng.recomputes(), 0);
  EXPECT_LT(eng.recomputes(), eng.moves() * 5);
}

TEST(IncrementalHpwl, RevertRestoresExactState) {
  Design d = make_random_design(40, 25, 5);
  const std::vector<Point> start = placement_snapshot(d);
  db::IncrementalHpwl eng(d);
  const Dbu t0 = eng.total();
  Rng rng(13);
  for (int round = 0; round < 20; ++round) {
    const int burst = static_cast<int>(rng.uniform_int(1, 8));
    for (int m = 0; m < burst; ++m) {
      eng.apply_move(static_cast<InstId>(rng.uniform_int(0, 39)),
                     {rng.uniform_int(0, 40000) * 2,
                      rng.uniform_int(0, 20000) * 2});
    }
    for (int m = 0; m < burst; ++m) eng.revert();
    ASSERT_EQ(eng.total(), t0) << "round " << round;
    ASSERT_EQ(placement_snapshot(d), start) << "round " << round;
  }
}

TEST(IncrementalHpwl, SyncWithAfterExternalMutation) {
  Design d = make_random_design(40, 25, 21);
  db::IncrementalHpwl eng(d);
  Rng rng(3);
  for (InstId i = 0; i < 40; ++i) {  // external bulk move, engine unaware
    d.netlist.instance(i).pos = {rng.uniform_int(0, 40000) * 2,
                                 rng.uniform_int(0, 20000) * 2};
  }
  EXPECT_EQ(eng.sync_with(), total_hpwl(d, 1));
  const Dbu t = eng.apply_move(7, {4000, 2000});  // engine usable after sync
  EXPECT_EQ(t, total_hpwl(d, 1));
}

TEST(IncrementalHpwl, ClockNetNeverContributes) {
  Design d = make_random_design(10, 5, 2);
  db::IncrementalHpwl eng(d);
  // Stretch only the clock net's cells: total must track the fresh scan
  // (which excludes the clock) rather than grow by the clock span.
  const Net& clk = d.netlist.net(4);
  ASSERT_TRUE(clk.is_clock);
  for (const PinRef& ref : clk.pins) {
    if (ref.is_port()) continue;
    const Dbu t = eng.apply_move(
        ref.inst, {ref.inst * 1000, d.netlist.instance(ref.inst).pos.y});
    EXPECT_EQ(t, total_hpwl(d, 1));
  }
}

}  // namespace
}  // namespace mth
