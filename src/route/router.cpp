#include "mth/route/router.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"

namespace mth::route {
namespace {

struct GridPt {
  int x = 0, y = 0;
  friend bool operator==(const GridPt&, const GridPt&) = default;
};

/// Routing grid with per-edge usage/history (PathFinder-style costs). Each
/// edge's cost is cached and refreshed whenever its usage or history moves,
/// so the maze search reads one double per relax.
class Grid {
 public:
  Grid(const Rect& core, Dbu gcell, double cap_per_dir)
      : core_(core), gcell_(gcell), cap_(cap_per_dir) {
    nx_ = std::max<int>(2, static_cast<int>((core.width() + gcell - 1) / gcell));
    ny_ = std::max<int>(2, static_cast<int>((core.height() + gcell - 1) / gcell));
    usage_h_.assign(static_cast<std::size_t>(nx_ - 1) * static_cast<std::size_t>(ny_), 0.0);
    usage_v_.assign(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_ - 1), 0.0);
    hist_h_.assign(usage_h_.size(), 0.0);
    hist_v_.assign(usage_v_.size(), 0.0);
    cost_h_.assign(usage_h_.size(), fresh_cost(0.0, 0.0));
    cost_v_.assign(usage_v_.size(), fresh_cost(0.0, 0.0));
  }

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  double capacity() const { return cap_; }
  Dbu gcell() const { return gcell_; }

  GridPt locate(const Point& p) const {
    return {std::clamp(static_cast<int>((p.x - core_.lo.x) / gcell_), 0, nx_ - 1),
            std::clamp(static_cast<int>((p.y - core_.lo.y) / gcell_), 0, ny_ - 1)};
  }

  // Edge ids: horizontal edge (x,y)->(x+1,y) and vertical (x,y)->(x,y+1).
  std::size_t h_edge(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_ - 1) +
           static_cast<std::size_t>(x);
  }
  std::size_t v_edge(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(x);
  }

  double edge_cost(bool horiz, std::size_t id) const {
    return horiz ? cost_h_[id] : cost_v_[id];
  }

  void add_usage(bool horiz, std::size_t id, double delta) {
    double& u = horiz ? usage_h_[id] : usage_v_[id];
    u += delta;
    (horiz ? cost_h_[id] : cost_v_[id]) =
        fresh_cost(u, horiz ? hist_h_[id] : hist_v_[id]);
  }

  void bump_history(double inc) {
    for (std::size_t i = 0; i < usage_h_.size(); ++i) {
      if (usage_h_[i] > cap_) {
        hist_h_[i] += inc * (usage_h_[i] - cap_) / cap_;
        cost_h_[i] = fresh_cost(usage_h_[i], hist_h_[i]);
      }
    }
    for (std::size_t i = 0; i < usage_v_.size(); ++i) {
      if (usage_v_[i] > cap_) {
        hist_v_[i] += inc * (usage_v_[i] - cap_) / cap_;
        cost_v_[i] = fresh_cost(usage_v_[i], hist_v_[i]);
      }
    }
  }

  int count_overflow(double* max_util) const {
    int n = 0;
    double mu = 0.0;
    for (double u : usage_h_) {
      if (u > cap_) ++n;
      mu = std::max(mu, u / cap_);
    }
    for (double u : usage_v_) {
      if (u > cap_) ++n;
      mu = std::max(mu, u / cap_);
    }
    if (max_util) *max_util = mu;
    return n;
  }

  bool edge_overflowed(bool horiz, std::size_t id) const {
    return (horiz ? usage_h_[id] : usage_v_[id]) > cap_;
  }

 private:
  /// Present-congestion plus history cost of one edge about to take one
  /// more wire.
  double fresh_cost(double u, double h) const {
    const double over = std::max(0.0, (u + 1.0 - cap_) / cap_);
    return 1.0 + 12.0 * over + h;
  }

  Rect core_;
  Dbu gcell_;
  double cap_;
  int nx_, ny_;
  std::vector<double> usage_h_, usage_v_, hist_h_, hist_v_, cost_h_, cost_v_;
};

/// One committed grid segment of a net path.
struct Seg {
  bool horiz;
  std::size_t id;
};

/// L-path edges between two grid points, bend at (via `bend_at_b_x`): either
/// horizontal-then-vertical or vertical-then-horizontal.
void l_path(const Grid& g, GridPt a, GridPt b, bool horiz_first,
            std::vector<Seg>& out) {
  out.clear();
  const int x0 = std::min(a.x, b.x), x1 = std::max(a.x, b.x);
  const int y0 = std::min(a.y, b.y), y1 = std::max(a.y, b.y);
  if (horiz_first) {
    for (int x = x0; x < x1; ++x) out.push_back({true, g.h_edge(x, a.y)});
    for (int y = y0; y < y1; ++y) out.push_back({false, g.v_edge(b.x, y)});
  } else {
    for (int y = y0; y < y1; ++y) out.push_back({false, g.v_edge(a.x, y)});
    for (int x = x0; x < x1; ++x) out.push_back({true, g.h_edge(x, b.y)});
  }
}

double path_cost(const Grid& g, const std::vector<Seg>& segs) {
  double c = 0.0;
  for (const Seg& s : segs) c += g.edge_cost(s.horiz, s.id);
  return c;
}

/// Indexed 4-ary min-heap over grid nodes keyed by (dist, node id), with
/// decrease-key. Pops come in the same (dist, id) order as a lazy
/// std::priority_queue of pairs, minus its stale entries. Each entry packs
/// the key into one 128-bit integer, an order-preserving image of the dist
/// bits above the node id, so comparing two entries is one integer compare.
class NodeHeap {
 public:
  explicit NodeHeap(std::size_t nodes) : pos_(nodes, -1) {}

  bool empty() const { return heap_.empty(); }
  void clear() { heap_.clear(); }
  /// Heap position of `node`, or -1 once popped. Only meaningful for nodes
  /// pushed since the last clear().
  int pos(int node) const { return pos_[static_cast<std::size_t>(node)]; }

  void push(int node, double key) {
    heap_.push_back(pack(node, key));
    sift_up(heap_.size() - 1);
  }
  void decrease(int node, double key) {
    const auto i = static_cast<std::size_t>(pos_[static_cast<std::size_t>(node)]);
    heap_[i] = pack(node, key);
    sift_up(i);
  }
  /// Removes the minimum and returns its node. The hole left at the root
  /// walks down the smaller children to a leaf, and the last entry sifts up
  /// from there: it usually belongs near the bottom, so this costs fewer
  /// comparisons than sifting it down from the root.
  int pop() {
    const int top = node_of(heap_.front());
    pos_[static_cast<std::size_t>(top)] = -1;
    const Packed last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      std::size_t best = first;
      if (first + 4 <= n) {  // full family: two pairs, then their winners
        const std::size_t a = heap_[first + 1] < heap_[first] ? first + 1 : first;
        const std::size_t b = heap_[first + 3] < heap_[first + 2] ? first + 3 : first + 2;
        best = heap_[b] < heap_[a] ? b : a;
      } else if (first < n) {
        for (std::size_t c = first + 1; c < n; ++c) {
          if (heap_[c] < heap_[best]) best = c;
        }
      } else {
        break;
      }
      place(i, heap_[best]);
      i = best;
    }
    heap_[i] = last;
    sift_up(i);
    return top;
  }

 private:
  __extension__ using Packed = unsigned __int128;

  /// Key bits ordered like the doubles themselves (sign flipped, negatives
  /// mirrored) above the node id. Dists are never NaN or -0.0.
  static Packed pack(int node, double key) {
    const auto b = std::bit_cast<std::uint64_t>(key);
    const std::uint64_t ordered = (b >> 63) != 0 ? ~b : b | (std::uint64_t{1} << 63);
    return (static_cast<Packed>(ordered) << 64) | static_cast<std::uint32_t>(node);
  }
  static int node_of(Packed e) { return static_cast<int>(static_cast<std::uint32_t>(e)); }

  void place(std::size_t i, Packed e) {
    heap_[i] = e;
    pos_[static_cast<std::size_t>(node_of(e))] = static_cast<int>(i);
  }
  void sift_up(std::size_t i) {
    const Packed e = heap_[i];
    while (i > 0) {
      const std::size_t p = (i - 1) / 4;
      if (!(e < heap_[p])) break;
      place(i, heap_[p]);
      i = p;
    }
    place(i, e);
  }

  std::vector<Packed> heap_;
  std::vector<int> pos_;
};

/// Per-node maze search state, owned by one route_design call and reused by
/// all of its searches. A node's dist/prev are live only when its stamp
/// equals the current search's generation, so no search re-initialises the
/// grid-sized arrays.
struct MazeScratch {
  explicit MazeScratch(std::size_t nodes)
      : dist(nodes, 0.0), prev(nodes, -1), stamp(nodes, 0), heap(nodes) {}

  std::vector<double> dist;
  std::vector<int> prev;
  std::vector<std::uint64_t> stamp;
  std::uint64_t gen = 0;  ///< searches so far (64 bits never wrap)
  NodeHeap heap;
  std::int64_t settled = 0;  ///< heap pops summed over all searches
};

/// Dijkstra maze route between grid points. Nodes settle in (dist, node id)
/// order and a relax wins only on a strictly smaller dist, so ties keep the
/// earliest-settled predecessor. Writes the path into `out` (target to
/// source) and returns false, leaving `out` untouched, if b is unreachable.
bool maze_route(const Grid& g, GridPt a, GridPt b, MazeScratch& s,
                std::vector<Seg>& out) {
  const int nx = g.nx(), ny = g.ny();
  const std::uint64_t gen = ++s.gen;
  NodeHeap& heap = s.heap;
  heap.clear();
  const int source = a.y * nx + a.x;
  const int target = b.y * nx + b.x;
  s.stamp[static_cast<std::size_t>(source)] = gen;
  s.dist[static_cast<std::size_t>(source)] = 0.0;
  s.prev[static_cast<std::size_t>(source)] = -1;
  heap.push(source, 0.0);
  while (!heap.empty()) {
    const int u = heap.pop();
    const double d = s.dist[static_cast<std::size_t>(u)];
    ++s.settled;
    if (u == target) break;
    const int ux = u % nx;
    const int uy = u / nx;
    auto relax = [&](int v, double cost) {
      const double nd = d + cost;
      const auto vi = static_cast<std::size_t>(v);
      const bool reached = s.stamp[vi] == gen;
      if (reached && !(nd < s.dist[vi])) return;
      s.stamp[vi] = gen;
      s.dist[vi] = nd;
      s.prev[vi] = u;
      // A reached node is still queued unless settled. A settled node can
      // improve only under negative history costs; it then goes back on the
      // heap, as a lazy queue would re-push it.
      if (reached && heap.pos(v) >= 0) {
        heap.decrease(v, nd);
      } else {
        heap.push(v, nd);
      }
    };
    if (ux > 0) relax(u - 1, g.edge_cost(true, g.h_edge(ux - 1, uy)));
    if (ux + 1 < nx) relax(u + 1, g.edge_cost(true, g.h_edge(ux, uy)));
    if (uy > 0) relax(u - nx, g.edge_cost(false, g.v_edge(ux, uy - 1)));
    if (uy + 1 < ny) relax(u + nx, g.edge_cost(false, g.v_edge(ux, uy)));
  }
  if (s.stamp[static_cast<std::size_t>(target)] != gen) return false;
  out.clear();
  int cur = target;
  while (s.prev[static_cast<std::size_t>(cur)] >= 0) {
    const int p = s.prev[static_cast<std::size_t>(cur)];
    const int cx = cur % nx, cy = cur / nx;
    const int px = p % nx, py = p / nx;
    if (cy == py) {
      out.push_back({true, g.h_edge(std::min(cx, px), cy)});
    } else {
      out.push_back({false, g.v_edge(cx, std::min(cy, py))});
    }
    cur = p;
  }
  return true;
}

struct EdgeRoute {
  int child_pin;       ///< index into Net::pins
  int parent_pin;
  std::vector<Seg> segs;
  Dbu length = 0;
};

}  // namespace

RouteResult route_design(const Design& design, const RouterOptions& opt) {
  MTH_SPAN("route/global");
  const Floorplan& fp = design.floorplan;
  const Tech& tech = design.library->tech();
  const Dbu gcell = opt.gcell_size > 0
                        ? opt.gcell_size
                        : std::max<Dbu>(fp.row(0).height * 6, tech.site_width * 24);
  const double cap = opt.layers_per_dir *
                     (static_cast<double>(gcell) / opt.wire_pitch);
  Grid grid(fp.core(), gcell, cap);

  const int num_nets = design.netlist.num_nets();
  RouteResult result;
  result.nets.resize(static_cast<std::size_t>(num_nets));
  result.grid_nx = grid.nx();
  result.grid_ny = grid.ny();

  // Pin geometry per net, plus MST topology (Prim, Manhattan metric).
  std::vector<std::vector<Point>> net_pins(static_cast<std::size_t>(num_nets));
  std::vector<std::vector<EdgeRoute>> net_edges(static_cast<std::size_t>(num_nets));

  {
    MTH_SPAN("route/initial");
    for (NetId nid = 0; nid < num_nets; ++nid) {
      const Net& net = design.netlist.net(nid);
      NetRoute& nr = result.nets[static_cast<std::size_t>(nid)];
      const int k = net.degree();
      nr.parent.assign(static_cast<std::size_t>(k), -1);
      nr.edge_length.assign(static_cast<std::size_t>(k), 0);
      if (net.is_clock || k < 2) continue;

      std::vector<Point>& pins = net_pins[static_cast<std::size_t>(nid)];
      pins.reserve(static_cast<std::size_t>(k));
      for (const PinRef& ref : net.pins) {
        pins.push_back(design.netlist.pin_position(ref, *design.library));
      }

      // Prim MST rooted at the driver (pin 0).
      std::vector<bool> in_tree(static_cast<std::size_t>(k), false);
      std::vector<Dbu> best(static_cast<std::size_t>(k), INT64_MAX);
      std::vector<int> best_parent(static_cast<std::size_t>(k), 0);
      in_tree[0] = true;
      for (int i = 1; i < k; ++i) {
        best[static_cast<std::size_t>(i)] = manhattan(pins[0], pins[static_cast<std::size_t>(i)]);
      }
      for (int added = 1; added < k; ++added) {
        int pick = -1;
        Dbu pick_d = INT64_MAX;
        for (int i = 1; i < k; ++i) {
          if (!in_tree[static_cast<std::size_t>(i)] &&
              best[static_cast<std::size_t>(i)] < pick_d) {
            pick_d = best[static_cast<std::size_t>(i)];
            pick = i;
          }
        }
        MTH_ASSERT(pick >= 0, "router: MST failure");
        in_tree[static_cast<std::size_t>(pick)] = true;
        nr.parent[static_cast<std::size_t>(pick)] = best_parent[static_cast<std::size_t>(pick)];
        for (int i = 1; i < k; ++i) {
          if (in_tree[static_cast<std::size_t>(i)]) continue;
          const Dbu d = manhattan(pins[static_cast<std::size_t>(pick)],
                                  pins[static_cast<std::size_t>(i)]);
          if (d < best[static_cast<std::size_t>(i)]) {
            best[static_cast<std::size_t>(i)] = d;
            best_parent[static_cast<std::size_t>(i)] = pick;
          }
        }
      }

      // Realize each MST edge as the cheaper of the two L paths.
      auto& edges = net_edges[static_cast<std::size_t>(nid)];
      std::vector<Seg> s1, s2;
      for (int i = 1; i < k; ++i) {
        const int par = nr.parent[static_cast<std::size_t>(i)];
        const GridPt a = grid.locate(pins[static_cast<std::size_t>(par)]);
        const GridPt b = grid.locate(pins[static_cast<std::size_t>(i)]);
        l_path(grid, a, b, true, s1);
        l_path(grid, a, b, false, s2);
        const bool first = path_cost(grid, s1) <= path_cost(grid, s2);
        EdgeRoute er;
        er.child_pin = i;
        er.parent_pin = par;
        er.segs = first ? s1 : s2;
        er.length = manhattan(pins[static_cast<std::size_t>(par)],
                              pins[static_cast<std::size_t>(i)]);
        for (const Seg& s : er.segs) grid.add_usage(s.horiz, s.id, 1.0);
        edges.push_back(std::move(er));
      }
    }
  }

  // Rip-up & reroute passes over nets touching overflowed edges.
  {
    MTH_SPAN("route/ripup");
    MazeScratch scratch(static_cast<std::size_t>(grid.nx()) *
                        static_cast<std::size_t>(grid.ny()));
    std::vector<Seg> path;
    for (int pass = 0; pass < opt.ripup_passes; ++pass) {
      if (grid.count_overflow(nullptr) == 0) break;
      grid.bump_history(opt.history_increment);
      int rerouted = 0;
      for (NetId nid = 0; nid < num_nets; ++nid) {
        auto& edges = net_edges[static_cast<std::size_t>(nid)];
        if (edges.empty() ||
            static_cast<int>(edges.size()) + 1 > opt.max_reroute_degree) {
          continue;
        }
        bool hot = false;
        for (const EdgeRoute& er : edges) {
          for (const Seg& s : er.segs) {
            if (grid.edge_overflowed(s.horiz, s.id)) {
              hot = true;
              break;
            }
          }
          if (hot) break;
        }
        if (!hot) continue;
        const std::vector<Point>& pins = net_pins[static_cast<std::size_t>(nid)];
        for (EdgeRoute& er : edges) {
          for (const Seg& s : er.segs) grid.add_usage(s.horiz, s.id, -1.0);
          const GridPt a = grid.locate(pins[static_cast<std::size_t>(er.parent_pin)]);
          const GridPt b = grid.locate(pins[static_cast<std::size_t>(er.child_pin)]);
          if (maze_route(grid, a, b, scratch, path)) {
            const Dbu straight = manhattan(pins[static_cast<std::size_t>(er.parent_pin)],
                                           pins[static_cast<std::size_t>(er.child_pin)]);
            const Dbu grid_len = static_cast<Dbu>(path.size()) * gcell;
            er.segs.assign(path.begin(), path.end());
            // Detoured length: never shorter than the straight-line route.
            er.length = std::max(straight, grid_len);
          }
          for (const Seg& s : er.segs) grid.add_usage(s.horiz, s.id, 1.0);
        }
        ++rerouted;
      }
      MTH_DEBUG << "route pass " << pass << ": rerouted " << rerouted << " nets, "
                << grid.count_overflow(nullptr) << " edges overflowed";
      if (rerouted == 0) break;
    }
    MTH_COUNT("route/maze_calls", static_cast<std::int64_t>(scratch.gen));
    MTH_COUNT("route/maze_settled", scratch.settled);
  }

  // Collect lengths.
  for (NetId nid = 0; nid < num_nets; ++nid) {
    NetRoute& nr = result.nets[static_cast<std::size_t>(nid)];
    for (const EdgeRoute& er : net_edges[static_cast<std::size_t>(nid)]) {
      nr.edge_length[static_cast<std::size_t>(er.child_pin)] = er.length;
      nr.length += er.length;
    }
    result.total_wirelength += nr.length;
  }
  result.overflowed_edges = grid.count_overflow(&result.max_utilization);
  MTH_COUNT("route/overflows", result.overflowed_edges);
  return result;
}

}  // namespace mth::route
