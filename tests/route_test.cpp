// Global router tests: tree validity, length lower bounds, congestion
// response, determinism, and routes pinned to recorded output.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>

#include "mth/db/metrics.hpp"
#include "mth/flows/flow.hpp"
#include "mth/route/router.hpp"
#include "mth/util/rng.hpp"

namespace mth::route {
namespace {

const flows::PreparedCase& small_case() {
  static const flows::PreparedCase pc = [] {
    flows::FlowOptions opt;
    opt.scale = 0.05;
    return flows::prepare_case(synth::spec_by_name("aes_360"), opt);
  }();
  return pc;
}

TEST(Router, EveryNonClockNetRouted) {
  const Design& d = small_case().initial;
  const RouteResult r = route_design(d);
  ASSERT_EQ(r.nets.size(), static_cast<std::size_t>(d.netlist.num_nets()));
  for (NetId n = 0; n < d.netlist.num_nets(); ++n) {
    const Net& net = d.netlist.net(n);
    const NetRoute& nr = r.nets[static_cast<std::size_t>(n)];
    if (net.is_clock || net.degree() < 2) {
      EXPECT_EQ(nr.length, 0);
      continue;
    }
    EXPECT_EQ(nr.parent.size(), static_cast<std::size_t>(net.degree()));
    EXPECT_EQ(nr.parent[0], -1);  // driver is the root
  }
  EXPECT_GT(r.total_wirelength, 0);
}

TEST(Router, TreeIsConnectedAndAcyclic) {
  const Design& d = small_case().initial;
  const RouteResult r = route_design(d);
  for (NetId n = 0; n < d.netlist.num_nets(); ++n) {
    const Net& net = d.netlist.net(n);
    if (net.is_clock || net.degree() < 2) continue;
    const NetRoute& nr = r.nets[static_cast<std::size_t>(n)];
    // Every non-root reaches the root without cycles.
    for (int i = 1; i < net.degree(); ++i) {
      int steps = 0;
      int cur = i;
      while (cur != 0 && steps <= net.degree()) {
        cur = nr.parent[static_cast<std::size_t>(cur)];
        ASSERT_GE(cur, 0) << "disconnected pin on net " << net.name;
        ++steps;
      }
      ASSERT_LE(steps, net.degree()) << "cycle on net " << net.name;
    }
  }
}

TEST(Router, LengthAtLeastHpwlPerNet) {
  // A Steiner tree can never be shorter than the net HPWL.
  const Design& d = small_case().initial;
  const RouteResult r = route_design(d);
  for (NetId n = 0; n < d.netlist.num_nets(); ++n) {
    const Net& net = d.netlist.net(n);
    if (net.is_clock || net.degree() < 2) continue;
    EXPECT_GE(r.nets[static_cast<std::size_t>(n)].length, net_hpwl(d, n))
        << net.name;
  }
}

TEST(Router, TwoPinNetLengthIsManhattan) {
  const Design& d = small_case().initial;
  const RouteResult r = route_design(d);
  int checked = 0;
  for (NetId n = 0; n < d.netlist.num_nets(); ++n) {
    const Net& net = d.netlist.net(n);
    if (net.is_clock || net.degree() != 2) continue;
    const Point a = d.netlist.pin_position(net.pins[0], *d.library);
    const Point b = d.netlist.pin_position(net.pins[1], *d.library);
    // Two-pin nets route as an L (possibly detoured when congested); length
    // must equal Manhattan unless rip-up added detour.
    EXPECT_GE(r.nets[static_cast<std::size_t>(n)].length, manhattan(a, b));
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST(Router, TotalEqualsSumOfNets) {
  const Design& d = small_case().initial;
  const RouteResult r = route_design(d);
  Dbu sum = 0;
  for (const NetRoute& nr : r.nets) sum += nr.length;
  EXPECT_EQ(sum, r.total_wirelength);
}

TEST(Router, Deterministic) {
  const Design& d = small_case().initial;
  const RouteResult a = route_design(d);
  const RouteResult b = route_design(d);
  EXPECT_EQ(a.total_wirelength, b.total_wirelength);
  EXPECT_EQ(a.overflowed_edges, b.overflowed_edges);
}

/// FNV-1a over every net's parent and edge_length arrays (sizes included),
/// so a single value pins the whole routed topology.
std::uint64_t topology_digest(const RouteResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const NetRoute& nr : r.nets) {
    mix(nr.parent.size());
    for (int p : nr.parent) mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(p)));
    for (Dbu l : nr.edge_length) mix(static_cast<std::uint64_t>(l));
  }
  return h;
}

struct PinnedRoute {
  const char* name;
  RouterOptions options;
  Dbu wirelength;
  int overflowed_edges;
  double max_utilization;
  std::uint64_t digest;
};

TEST(Router, RoutesPinnedToRecordedOutput) {
  // Recorded from the lazy-heap Dijkstra router that the indexed-heap search
  // replaced; any change to which equal-cost path the maze search picks
  // moves these.
  const Design& d = small_case().initial;
  RouterOptions starved;
  starved.layers_per_dir = 1;
  starved.wire_pitch = 640.0;
  starved.ripup_passes = 4;
  RouterOptions fine_grid;
  fine_grid.gcell_size = d.floorplan.row(0).height * 3;
  const PinnedRoute cases[] = {
      {"default", RouterOptions{}, 3651556, 7, 0x1.177445dd11774p+0,
       0x45638125cf44453cull},
      {"starved", starved, 3794072, 84, 0x1.b226ec89bb226p+4,
       0xf37ff8a1af9bce8dull},
      {"fine_grid", fine_grid, 3538427, 24, 0x1.216f485bd216fp+0,
       0x4757be7d85f3c24dull},
  };
  for (const PinnedRoute& c : cases) {
    const RouteResult r = route_design(d, c.options);
    EXPECT_EQ(r.total_wirelength, c.wirelength) << c.name;
    EXPECT_EQ(r.overflowed_edges, c.overflowed_edges) << c.name;
    EXPECT_EQ(r.max_utilization, c.max_utilization)
        << c.name << " " << std::hexfloat << r.max_utilization;
    EXPECT_EQ(topology_digest(r), c.digest)
        << c.name << " 0x" << std::hex << topology_digest(r);
  }
}

TEST(Router, GridSizeOption) {
  const Design& d = small_case().initial;
  RouterOptions opt;
  opt.gcell_size = d.floorplan.row(0).height * 3;
  const RouteResult r = route_design(d, opt);
  EXPECT_GT(r.grid_nx, 0);
  EXPECT_GT(r.grid_ny, 0);
  EXPECT_GT(r.total_wirelength, 0);
}

TEST(Router, CongestionReliefReducesOverflow) {
  // Starve capacity, then check that rip-up passes do not increase overflow
  // versus no passes at all.
  const Design& d = small_case().initial;
  RouterOptions starved;
  starved.layers_per_dir = 1;
  starved.wire_pitch = 640.0;  // very few tracks
  starved.ripup_passes = 0;
  const RouteResult before = route_design(d, starved);
  starved.ripup_passes = 4;
  const RouteResult after = route_design(d, starved);
  EXPECT_LE(after.overflowed_edges, before.overflowed_edges);
  EXPECT_GT(before.overflowed_edges, 0) << "test needs congestion to bite";
}

TEST(Router, WirelengthTracksPlacementQuality) {
  // Scrambling the placement must increase routed wirelength.
  Design d = small_case().initial;
  const Dbu good = route_design(d).total_wirelength;
  Rng rng(3);
  const Rect core = d.floorplan.core();
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    Instance& inst = d.netlist.instance(i);
    const CellMaster& m = d.master_of(i);
    inst.pos = {rng.uniform_int(core.lo.x, core.hi.x - m.width),
                rng.uniform_int(core.lo.y, core.hi.y - m.height)};
  }
  const Dbu bad = route_design(d).total_wirelength;
  EXPECT_GT(bad, good * 3 / 2);
}

}  // namespace
}  // namespace mth::route
