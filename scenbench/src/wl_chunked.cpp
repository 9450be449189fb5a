// chunked_conveyor: the chunk store under load. ChunkedSystem at N=2048
// (4096 chunks) with the 16-lane walled serpentine of
// bench/macro_huge_grid.cpp, every lane cell but the target seeded with
// six entities (~196k), serial. One gap in the wall above the target
// lets the routing wave flood the open field during the timed rounds:
// virgin chunks materialize at its front and park behind it. A probe
// cell in the swept field fails and recovers periodically, faulting its
// parked chunk back in. The cell store is most of the process's peak
// RSS.
//
// ChunkedSystem has no PhaseHook or profiler, so the traced run spans
// whole update() calls ("chunk.update") and reads the store's own counts.
#include <cmath>
#include <unordered_set>

#include "chunk/chunked_system.hpp"
#include "core/predicates.hpp"
#include "grid/path.hpp"
#include "harness.hpp"
#include "snapshot/snapshot.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace scenbench {

using namespace cellflow;

namespace {

constexpr int kSide = 2048;
constexpr int kLanes = 16;
constexpr std::uint64_t kRounds = 2000;
constexpr std::uint64_t kWarmUp = 8;
/// The probe fails kProbePeriod rounds apart and recovers half a period
/// after each failure.
constexpr std::uint64_t kProbePeriod = 100;
constexpr double kSlotX[3] = {0.15, 0.50, 0.85};
constexpr double kSlotY[2] = {0.30, 0.70};
constexpr double kJitter = 0.04;

/// check_all(System)'s oracles — Safe, Invariants 1 and 2, footprint
/// separation — over the live chunks (parked and virgin chunks hold no
/// entities by the store's invariant).
void check_chunked(const chunk::ChunkedSystem& sys, Episode& ep) {
  const Params& prm = sys.params();
  const double d = prm.center_spacing();
  const double l = prm.entity_length();
  const double half = l / 2.0;
  const double eps = kPredicateEps;
  const chunk::ChunkedCellStore& store = sys.store();
  const chunk::ChunkLayout& layout = store.layout();
  std::unordered_set<EntityId> seen;
  for (std::size_t q = 0; q < layout.chunk_count(); ++q) {
    if (!store.is_live(q)) continue;
    const chunk::LiveChunk& lc = store.live(q);
    for (std::size_t slot = 0; slot < lc.cells.size(); ++slot) {
      const auto& members = lc.cells[slot].members;
      const CellId id = layout.cell_at(q, slot);
      for (std::size_t a = 0; a < members.size(); ++a) {
        const Entity& p = members[a];
        if (!seen.insert(p.id).second)
          ep.errors.push_back("oracle: Invariant2 at " + to_string(id));
        if (p.center.x - half < id.i - eps || p.center.x + half > id.i + 1 + eps ||
            p.center.y - half < id.j - eps || p.center.y + half > id.j + 1 + eps)
          ep.errors.push_back("oracle: Invariant1 at " + to_string(id));
        for (std::size_t b = a + 1; b < members.size(); ++b) {
          const Vec2 pa = p.center;
          const Vec2 pb = members[b].center;
          if (std::abs(pa.x - pb.x) < d - eps && std::abs(pa.y - pb.y) < d - eps)
            ep.errors.push_back("oracle: Safe at " + to_string(id));
          const Rect ra = p.footprint(l);
          const Rect rb = members[b].footprint(l);
          if (ra.overlaps(rb) || ra.linf_gap(rb) < prm.safety_gap() - eps)
            ep.errors.push_back("oracle: FootprintGap at " + to_string(id));
        }
      }
    }
  }
}

/// The probe cell at round `r`: L1 distance r/2 from the wall gap
/// `gap`, diagonally into the field, so the routing wave (one cell a
/// round from round 0) swept its chunk r/2 rounds ago and it has parked.
/// Off the gap's row and column, so the failure re-routes only its
/// neighbours.
CellId probe_cell(CellId gap, std::uint64_t r) {
  const int d = static_cast<int>(r / 4);
  return CellId{gap.i < kSide / 2 ? gap.i + d : gap.i - d, gap.j + d};
}

Episode run_chunked_conveyor(const EpisodeOptions& opt) {
  Episode ep;
  ep.variant = opt.variant;
  const std::uint64_t rounds = opt.rounds != 0 ? opt.rounds : kRounds;
  const auto s0 = Clock::now();

  const Grid grid(kSide);
  const Path path = make_serpentine_path(grid, CellId{0, 0}, kSide, kLanes);
  SystemConfig cfg;
  cfg.side = kSide;
  cfg.params = Params(0.2, 0.05, 0.2);
  cfg.sources = {path.source()};
  cfg.target = path.target();
  chunk::ChunkedSystem sys(cfg);
  sys.set_parallel_policy(ParallelPolicy::serial());
  sys.set_round_scheduler(RoundScheduler::kActiveSet);

  // Walls: every off-path cell of the rows between lanes and of the row
  // above the top lane, so Route follows the lanes, except the gap above
  // the target (the last lane is the top one), through which the field
  // gets its distances.
  const CellId gap{path.target().i, 2 * kLanes - 1};
  for (int k = 1; k <= kLanes; ++k) {
    const int j = 2 * k - 1;
    for (int i = 0; i < kSide; ++i) {
      const CellId id{i, j};
      if (!path.contains(id) && id != gap) sys.fail(id);
    }
  }
  // The seed jitters every entity upstream of the last lane. The last
  // lane, which feeds the target, is laid out identically for every seed:
  // jitter there switches the delivery rate between two modes ~15% apart,
  // which would make deliveries_per_s a property of the seed.
  Xoshiro256 rng(opt.seed);
  const int last_lane = 2 * (kLanes - 1);
  std::uint64_t seeded = 0;
  for (const CellId id : path.cells()) {
    if (id == path.target()) continue;
    const double jitter = id.j == last_lane ? 0.0 : kJitter;
    for (int e = 0; e < 6; ++e) {
      const double jx = (rng.uniform01() * 2.0 - 1.0) * jitter;
      const double jy = (rng.uniform01() * 2.0 - 1.0) * jitter;
      sys.seed_entity(id, Vec2{id.i + kSlotX[e % 3] + jx, id.j + kSlotY[e / 3] + jy});
      ++seeded;
    }
  }
  std::uint64_t injected = 0;
  for (std::uint64_t k = 0; k < kWarmUp; ++k) injected += sys.update().injected.size();
  ep.setup_s = seconds_between(s0, Clock::now());

  std::uint64_t route = 0, signal = 0, move = 0, live = 0, parked = 0;
  std::uint64_t peak = 0, arrivals = 0;
  const chunk::ChunkedCellStore::Stats stats0 = sys.store().stats();
  const auto tally = [&](const RoundEvents& ev) {
    const System::SchedulerStats& s = sys.last_scheduler_stats();
    route += s.route_cells;
    signal += s.signal_cells;
    move += s.move_cells;
    live += sys.store().live_count();
    parked += sys.store().parked_count();
    peak = std::max(peak, sys.store().resident_bytes());
    injected += ev.injected.size();
    arrivals += ev.arrivals;
  };
  Tracer* tr = opt.tracer;
  if (tr == nullptr) ep.round_us.reserve(rounds);
  const double cpu0 = process_cpu_seconds();
  const auto w0 = Clock::now();
  for (std::uint64_t k = 0; k < rounds; ++k) {
    const std::uint64_t r = sys.round();
    if (r % kProbePeriod == 0) sys.fail(probe_cell(gap, r));
    if (r % kProbePeriod == kProbePeriod / 2)
      sys.recover(probe_cell(gap, r - kProbePeriod / 2));
    if (tr != nullptr) tr->begin_round(r);
    const auto u0 = Clock::now();
    const RoundEvents& ev = sys.update();
    const auto u1 = Clock::now();
    if (tr != nullptr) {
      tr->leaf("chunk.update", u0, u1);
    } else {
      ep.round_us.push_back(seconds_between(u0, u1) * 1e6);
    }
    tally(ev);
  }
  ep.wall_s = seconds_between(w0, Clock::now());
  ep.cpu_s = process_cpu_seconds() - cpu0;
  ep.peak_rss_mb = peak_rss_mb();
  ep.rounds = rounds;
  ep.deliveries = arrivals;
  const chunk::ChunkedCellStore::Stats& stats = sys.store().stats();
  ep.counts = {{"chunk.route_cells", static_cast<double>(route)},
               {"chunk.signal_cells", static_cast<double>(signal)},
               {"chunk.move_cells", static_cast<double>(move)},
               {"chunk.live_chunk_rounds", static_cast<double>(live)},
               {"chunk.parked_chunk_rounds", static_cast<double>(parked)},
               {"chunk.resident_bytes_peak", static_cast<double>(peak)},
               {"chunk.arrivals", static_cast<double>(arrivals)},
               {"chunk.materialized", static_cast<double>(stats.materialized_total -
                                                          stats0.materialized_total)},
               {"chunk.parked", static_cast<double>(stats.parked_total -
                                                    stats0.parked_total)},
               {"chunk.unparked", static_cast<double>(stats.unparked_total -
                                                      stats0.unparked_total)}};

  check_chunked(sys, ep);
  if (seeded + injected != sys.total_injected() ||
      sys.total_injected() != sys.total_arrivals() + sys.entity_count())
    ep.errors.push_back("ledger: seeded + injected != arrivals + resident");
  ep.digest = snapshot::state_digest(sys);
  return ep;
}

void chunked_layers(const std::vector<Episode>& eps, const Tracer& tr,
                    MetricSet& out) {
  common_per_layer(eps, out);
  const Episode& e = eps.front();
  const double r = static_cast<double>(e.rounds);
  const double us = static_cast<double>(tr.totals("chunk.update").total_ns) /
                    1e3 / static_cast<double>(tr.rounds());
  const double live = e.counts.at("chunk.live_chunk_rounds") / r;
  out["chunk.us_per_round"] = us;
  out["chunk.live_chunks"] = live;
  out["chunk.parked_chunks"] = e.counts.at("chunk.parked_chunk_rounds") / r;
  out["chunk.ns_per_live_cell"] =
      live > 0.0 ? us * 1e3 / (live * chunk::kChunkSide * chunk::kChunkSide) : 0.0;
  out["chunk.resident_mb_peak"] = e.counts.at("chunk.resident_bytes_peak") / 1e6;
  out["chunk.route_cells_per_round"] = e.counts.at("chunk.route_cells") / r;
  out["chunk.signal_cells_per_round"] = e.counts.at("chunk.signal_cells") / r;
  out["chunk.move_cells_per_round"] = e.counts.at("chunk.move_cells") / r;
  out["chunk.materialized_per_round"] = e.counts.at("chunk.materialized") / r;
  out["chunk.parked_per_round"] = e.counts.at("chunk.parked") / r;
  out["chunk.unparked_per_round"] = e.counts.at("chunk.unparked") / r;
}

}  // namespace

Workload chunked_conveyor_workload() {
  return {"chunked_conveyor", {Variant::kPlain, Variant::kTraced}, 1,
          run_chunked_conveyor, chunked_layers};
}

}  // namespace scenbench
