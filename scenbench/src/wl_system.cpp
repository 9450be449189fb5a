// The two dense-System workloads: the same `core` layer used in opposite
// ways.
//
//   sparse_field  side 400, serial, active-set scheduler: a thin flow
//                 across a huge quiescent field, so the O(N²) per-round
//                 gate scans and the metrics registry's compensation
//                 walks dominate. A scripted jam fails a block on the
//                 flow's path and recovers it, repeatedly (Route bursts).
//   dense_crowd   side 256, every non-target cell holding six entities,
//                 ParallelPolicy::parallel(2) with nothing attached, so
//                 the fused run_plan engine runs and every cell is active
//                 every round. The only pooled workload.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace scenbench {

using namespace cellflow;

namespace {

// ---------------------------------------------------------------- sparse_field

constexpr int kFieldSide = 400;
constexpr int kFieldSources = 8;
constexpr std::uint64_t kFieldRounds = 2500;
constexpr std::uint64_t kFieldMaxWarmUp = 20000;
/// Jam cycle: the block fails kJamFailAt rounds into every kJamPeriod and
/// recovers kJamRecoverAt rounds in.
constexpr std::uint64_t kJamPeriod = 250;
constexpr std::uint64_t kJamFailAt = 25;
constexpr std::uint64_t kJamRecoverAt = 150;

SystemConfig field_config(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.side = kFieldSide;
  // Fast entities (v = 0.35) keep the warm-up to the first arrival short.
  cfg.params = Params(0.4, 0.05, 0.35);
  cfg.target = CellId{kFieldSide - 1, kFieldSide / 2};
  // West-edge rows evenly spaced from a seeded offset: every seed gets
  // the same flow geometry, shifted.
  const int spacing = kFieldSide / kFieldSources;
  const auto offset = static_cast<int>(Xoshiro256(seed)() % spacing);
  for (int k = 0; k < kFieldSources; ++k)
    cfg.sources.push_back(CellId{0, offset + k * spacing});
  return cfg;
}

/// A 3×3 block centred on the occupied cell nearest the field's middle
/// column (ties: lowest row), so it sits on the flow's path.
std::vector<CellId> jam_block(const System& sys) {
  const int mid = kFieldSide / 2;
  std::optional<CellId> centre;
  int best = kFieldSide;
  const auto cells = sys.cells();
  for (std::size_t k = 0; k < cells.size(); ++k) {
    if (cells[k].members.empty()) continue;
    const CellId id = sys.grid().id_of(k);
    const int d = std::abs(id.i - mid);
    if (d < best || (d == best && centre && id.j < centre->j)) {
      best = d;
      centre = id;
    }
  }
  std::vector<CellId> block;
  if (!centre) return block;
  for (int di = -1; di <= 1; ++di) {
    for (int dj = -1; dj <= 1; ++dj) {
      const CellId id{centre->i + di, centre->j + dj};
      if (!sys.grid().contains(id) || id == sys.target()) continue;
      const auto src = sys.sources();
      if (std::find(src.begin(), src.end(), id) != src.end()) continue;
      block.push_back(id);
    }
  }
  return block;
}

Episode run_sparse_field(const EpisodeOptions& opt) {
  Episode ep;
  ep.variant = opt.variant;
  const std::uint64_t rounds = opt.rounds != 0 ? opt.rounds : kFieldRounds;
  const auto s0 = Clock::now();

  obs::MetricsRegistry registry;
  System sys(field_config(opt.seed));
  sys.set_parallel_policy(ParallelPolicy::serial());
  sys.set_round_scheduler(RoundScheduler::kActiveSet);

  // Warm-up: until the flow reaches the target. The registry is attached
  // after it (it only observes), so the set-up is not dominated by its
  // per-round compensation walks.
  std::uint64_t injected = 0;
  while (sys.total_arrivals() == 0 && sys.round() < kFieldMaxWarmUp)
    warm_up(sys, 1, injected);
  if (sys.total_arrivals() == 0) ep.errors.push_back("flow never arrived");
  if (opt.variant != Variant::kDetached) sys.set_metrics(&registry);

  const std::vector<CellId> block = jam_block(sys);
  std::vector<ScriptedFailures::Action> script;
  std::uint64_t transitions = 0;
  for (std::uint64_t t = 0; t < rounds; t += kJamPeriod) {
    for (const CellId id : block) {
      if (t + kJamFailAt < rounds) {
        script.push_back({sys.round() + t + kJamFailAt, id, false});
        ++transitions;
      }
      if (t + kJamRecoverAt < rounds) {
        script.push_back({sys.round() + t + kJamRecoverAt, id, true});
        ++transitions;
      }
    }
  }
  ScriptedFailures jam(std::move(script));
  ep.setup_s = seconds_between(s0, Clock::now());

  const SystemTally t = run_system_rounds(sys, &jam, rounds, opt.tracer, ep);
  note_core_counts(t, ep);
  ep.counts["failure.transitions"] = static_cast<double>(transitions);
  finish_system_episode(sys, 0, injected + t.injected, ep);
  return ep;
}

void sparse_field_layers(const std::vector<Episode>& eps, const Tracer& tr,
                         MetricSet& out) {
  core_per_layer(eps, tr, "core.update", kFieldSide * kFieldSide, out);
  common_per_layer(eps, out);
  const auto wall = [](const Episode& e) { return e.wall_s; };
  const double attached = median_of(eps, Variant::kPlain, wall);
  const double detached = median_of(eps, Variant::kDetached, wall);
  const double r = static_cast<double>(eps.front().rounds);
  if (detached > 0.0) {
    out["obs.metrics_us_per_round"] = (attached - detached) / r * 1e6;
    out["obs.metrics_overhead_pct"] = 100.0 * (attached / detached - 1.0);
  }
  const double rounds = static_cast<double>(tr.rounds());
  out["failure.apply_us_per_round"] =
      static_cast<double>(tr.totals("failure.apply").total_ns) / 1e3 / rounds;
  out["failure.transitions_per_round"] =
      eps.front().counts.at("failure.transitions") / r;
}

// ----------------------------------------------------------------- dense_crowd

constexpr int kCrowdSide = 256;
constexpr int kCrowdThreads = 2;
constexpr std::uint64_t kCrowdRounds = 500;
constexpr std::uint64_t kCrowdWarmUp = 16;

/// Six safe slots per cell with Params(0.2, 0.05, 0.2) — centres ≥ 0.35
/// apart on x and 0.4 on y, so a ±0.04 jitter keeps them ≥ d = 0.25
/// apart and every footprint inside the cell.
constexpr double kSlotX[3] = {0.15, 0.50, 0.85};
constexpr double kSlotY[2] = {0.30, 0.70};
constexpr double kJitter = 0.04;
/// Cells within this Chebyshev distance of the exit are not jittered.
constexpr int kCalm = 16;

Episode run_dense_crowd(const EpisodeOptions& opt) {
  Episode ep;
  ep.variant = opt.variant;
  const std::uint64_t rounds = opt.rounds != 0 ? opt.rounds : kCrowdRounds;
  const auto s0 = Clock::now();

  // The seed jitters every entity but those near the exit, which are
  // laid out identically for every seed: the entities that arrive during
  // an episode come from there, and jitter there would make the number
  // of deliveries, and so deliveries_per_s, a property of the seed.
  Xoshiro256 rng(opt.seed);
  SystemConfig cfg;
  cfg.side = kCrowdSide;
  cfg.params = Params(0.2, 0.05, 0.2);
  cfg.target = CellId{kCrowdSide / 2, kCrowdSide / 2};
  cfg.sources = {};
  System sys(cfg);
  sys.set_parallel_policy(opt.variant == Variant::kSerialTwin
                              ? ParallelPolicy::serial()
                              : ParallelPolicy::parallel(kCrowdThreads));
  sys.set_round_scheduler(RoundScheduler::kActiveSet);

  std::uint64_t seeded = 0;
  for (int j = 0; j < kCrowdSide; ++j) {
    for (int i = 0; i < kCrowdSide; ++i) {
      const CellId id{i, j};
      if (id == cfg.target) continue;
      for (int e = 0; e < 6; ++e) {
        const bool calm = std::abs(i - cfg.target.i) <= kCalm &&
                          std::abs(j - cfg.target.j) <= kCalm;
        const double jitter = calm ? 0.0 : kJitter;
        const double jx = (rng.uniform01() * 2.0 - 1.0) * jitter;
        const double jy = (rng.uniform01() * 2.0 - 1.0) * jitter;
        sys.seed_entity(id, Vec2{i + kSlotX[e % 3] + jx, j + kSlotY[e / 3] + jy});
        ++seeded;
      }
    }
  }
  std::uint64_t injected = 0;
  warm_up(sys, kCrowdWarmUp, injected);
  ep.setup_s = seconds_between(s0, Clock::now());
  // The hook that times phases forces the barriered engine, not the
  // fused one the untraced episodes run; the spans say so. The barriered
  // twin installs a hook that does nothing, so it runs the traced run's
  // engine without its tracing.
  if (opt.tracer != nullptr) opt.tracer->set_label("barriered");
  if (opt.variant == Variant::kBarriered)
    sys.set_phase_hook([](const System&, UpdatePhase) {});

  const SystemTally t = run_system_rounds(sys, nullptr, rounds, opt.tracer, ep);
  note_core_counts(t, ep);
  finish_system_episode(sys, seeded, injected + t.injected, ep);
  return ep;
}

void dense_crowd_layers(const std::vector<Episode>& eps, const Tracer& tr,
                        MetricSet& out) {
  core_per_layer(eps, tr, "core.update", kCrowdSide * kCrowdSide, out);
  common_per_layer(eps, out);
  const auto wall = [](const Episode& e) { return e.wall_s; };
  const double pooled = median_of(eps, Variant::kPlain, wall);
  const double serial = median_of(eps, Variant::kSerialTwin, wall);
  if (pooled > 0.0) out["thread_pool.speedup_vs_serial"] = serial / pooled;
}

}  // namespace

Workload sparse_field_workload() {
  return {"sparse_field",
          {Variant::kPlain, Variant::kDetached, Variant::kTraced},
          1,
          run_sparse_field,
          sparse_field_layers};
}

Workload dense_crowd_workload() {
  return {"dense_crowd",
          {Variant::kPlain, Variant::kSerialTwin, Variant::kBarriered,
           Variant::kTraced},
          1,
          run_dense_crowd,
          dense_crowd_layers};
}

}  // namespace scenbench
