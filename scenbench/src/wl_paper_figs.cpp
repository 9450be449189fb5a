// paper_figs: what reproducers run — run_workload on one point of each
// paper figure (Fig. 7 straight path, Fig. 8 carved path with turns,
// Fig. 9 pf/pr churn) at the paper's K, serial, with the per-round
// safety monitor, for several seeds derived from the benchmark seed.
// Fixed per-round costs dominate on the 8×8 grid.
//
// run_workload is one opaque call, so there are no per-update() times:
// the "round" samples are each call's wall ÷ K. The traced run rebuilds
// run_workload from its public pieces (System, carve_path,
// RandomFailRecover, Simulator, the observers) with spans around each
// layer, and its RunResult must equal the untraced call's bit for bit.
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <vector>

#include "core/choose.hpp"
#include "core/predicates.hpp"
#include "core/source.hpp"
#include "harness.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace scenbench {

using namespace cellflow;

namespace {

constexpr std::size_t kSeedsPerEpisode = 4;
constexpr std::uint64_t kWarmUpRounds = 100;

std::vector<WorkloadSpec> paper_points(std::uint64_t rounds_override) {
  std::vector<WorkloadSpec> specs = {fig7_base(0.2, 0.1), fig8_base(3, 0.1, 0.2),
                                     fig9_base(0.02, 0.1)};
  for (WorkloadSpec& s : specs) {
    s.parallel = ParallelPolicy::serial();
    s.scheduler = RoundScheduler::kActiveSet;
    if (rounds_override != 0) s.rounds = rounds_override;
  }
  return specs;
}

/// FNV-1a over every RunResult field, doubles by bit pattern.
void fold(std::uint64_t& h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}
void fold(std::uint64_t& h, const RunResult& r) {
  fold(h, std::bit_cast<std::uint64_t>(r.throughput));
  fold(h, r.arrivals);
  fold(h, r.injected);
  fold(h, std::bit_cast<std::uint64_t>(r.mean_latency));
  fold(h, std::bit_cast<std::uint64_t>(r.mean_blocked));
  fold(h, std::bit_cast<std::uint64_t>(r.mean_population));
  fold(h, r.safety_clean ? 1 : 0);
}

// --- the traced rebuild ------------------------------------------------

/// Opens the round: "sim.round" > "failure.apply", then "sim.update" >
/// "core.route" for the update() that Simulator::step calls next.
class TracedFailures final : public FailureModel {
 public:
  TracedFailures(FailureModel& inner, Tracer& tr) : inner_(inner), tr_(tr) {}
  void apply(System& sys) override {
    tr_.begin_round(sys.round());
    const auto t0 = Clock::now();
    tr_.open("sim.round", t0);
    tr_.open("failure.apply", t0);
    inner_.apply(sys);
    const auto t1 = Clock::now();
    tr_.close(t1);
    tr_.open("sim.update", t1);
    tr_.open("core.route", t1);
  }

 private:
  FailureModel& inner_;
  Tracer& tr_;
};

/// Closes the innermost span when a round's observers run: "sim.update"
/// as the first observer (Simulator calls on_round right after update()
/// returns; it also tallies the round's exact work), "sim.round" as the
/// last.
class RoundMark final : public Observer {
 public:
  RoundMark(Tracer& tr, SystemTally* tally) : tr_(tr), tally_(tally) {}
  void on_round(const System& sys, const RoundEvents& ev) override {
    tr_.close(Clock::now());
    if (tally_ != nullptr) tally_round(sys, ev, *tally_);
  }

 private:
  Tracer& tr_;
  SystemTally* tally_;
};

/// Times some of run_workload's observers' on_round, in order, under one
/// span. Observers only read the System, so grouping them does not change
/// any result.
class Timed final : public Observer {
 public:
  Timed(std::vector<Observer*> inner, Tracer& tr, const char* span)
      : inner_(std::move(inner)), tr_(tr), span_(span) {}
  void on_round(const System& sys, const RoundEvents& ev) override {
    const auto t0 = Clock::now();
    for (Observer* o : inner_) o->on_round(sys, ev);
    tr_.leaf(span_, t0, Clock::now());
  }
  void on_finish(const System& sys) override {
    for (Observer* o : inner_) o->on_finish(sys);
  }

 private:
  std::vector<Observer*> inner_;
  Tracer& tr_;
  const char* span_;
};

struct TracedCall {
  RunResult result;
  std::uint64_t transitions = 0;
};

/// run_workload (sim/experiment.cpp) rebuilt from public pieces, with
/// spans. Checks the final state's oracles and entity ledger into `ep`.
TracedCall traced_run(const WorkloadSpec& spec, std::uint64_t seed,
                      Tracer& tr, SystemTally& tally, Episode& ep) {
  SplitMix64 seeder(seed);
  const std::uint64_t choose_seed = seeder.next();
  const std::uint64_t source_seed = seeder.next();
  const std::uint64_t failure_seed = seeder.next();
  std::unique_ptr<SourcePolicy> source;
  if (spec.source_rate >= 1.0) {
    source = std::make_unique<EntryEdgeSource>();
  } else {
    source = std::make_unique<RateLimitedSource>(spec.source_rate, source_seed);
  }
  System sys(spec.config, make_choose_policy(spec.choose_policy, choose_seed),
             std::move(source));
  sys.set_parallel_policy(spec.parallel);
  sys.set_round_scheduler(spec.scheduler);
  if (!spec.carve_path.empty()) carve_path(sys, Path(sys.grid(), spec.carve_path));

  std::unique_ptr<RandomFailRecover> churn;
  NoFailures none;
  FailureModel* inner = &none;
  if (spec.pf > 0.0 || spec.pr > 0.0) {
    churn = std::make_unique<RandomFailRecover>(spec.pf, spec.pr, failure_seed,
                                                spec.protect_target);
    inner = churn.get();
  }
  TracedFailures failures(*inner, tr);

  ThroughputMeter throughput;
  SafetyMonitor safety;
  BlockingStats blocking;
  OccupancyTracker occupancy;
  ProgressTracker progress;
  RoundMark update_end(tr, &tally);
  Timed t_safety({&safety}, tr, "sim.safety_monitor");
  Timed t_others({&throughput, &blocking, &occupancy, &progress}, tr,
                 "sim.observers");
  RoundMark round_end(tr, nullptr);

  Simulator sim(sys, failures);
  sim.add_observer(update_end);
  sim.add_observer(t_safety);
  sim.add_observer(t_others);
  sim.add_observer(round_end);
  // Simulator forwards each phase point to its observers' on_phase. This
  // hook, installed over Simulator's, does the same for run_workload's
  // observers in run_workload's order, and times the core phases between
  // the points, with SafetyMonitor's post-Signal H check as its own span.
  const std::array<Observer*, 5> phase_observers = {
      &throughput, &safety, &blocking, &occupancy, &progress};
  sys.set_phase_hook([&](const System& s, UpdatePhase phase) {
    auto now = Clock::now();
    tr.close(now);
    for (Observer* o : phase_observers) {
      if (o != &safety || phase != UpdatePhase::kAfterSignal) {
        o->on_phase(s, phase);
        continue;
      }
      const auto t0 = Clock::now();
      o->on_phase(s, phase);
      now = Clock::now();
      tr.leaf("sim.safety_monitor", t0, now);
    }
    switch (phase) {
      case UpdatePhase::kAfterRoute: tr.open("core.signal", now); break;
      case UpdatePhase::kAfterSignal: tr.open("core.move", now); break;
      case UpdatePhase::kAfterMove: tr.open("core.inject", now); break;
      case UpdatePhase::kAfterInject: break;
    }
  });
  sim.run(spec.rounds);

  TracedCall c;
  c.result.throughput = throughput.throughput();
  c.result.arrivals = throughput.arrivals();
  c.result.injected = sys.total_injected();
  c.result.mean_latency = progress.latency().mean();
  c.result.mean_blocked = blocking.mean_blocked_per_round();
  c.result.mean_population = occupancy.population().mean();
  c.result.safety_clean = safety.clean();
  if (churn) c.transitions = churn->total_failures() + churn->total_recoveries();

  for (const Violation& v : check_all(sys)) {
    ep.errors.push_back("oracle: " + to_string(v));
  }
  if (sys.total_injected() != sys.total_arrivals() + sys.entity_count()) {
    ep.errors.push_back("ledger: created " + std::to_string(sys.total_injected()) +
                        " != arrivals + resident");
  }
  return c;
}

Episode run_paper_figs(const EpisodeOptions& opt) {
  Episode ep;
  ep.variant = opt.variant;
  const auto s0 = Clock::now();
  const std::vector<WorkloadSpec> specs = paper_points(opt.rounds);
  SplitMix64 sm(opt.seed);
  std::vector<std::uint64_t> seeds;
  for (std::size_t k = 0; k < kSeedsPerEpisode; ++k) seeds.push_back(sm.next());
  for (WorkloadSpec warm : specs) {
    warm.rounds = kWarmUpRounds;
    (void)run_workload(warm, seeds.front());
  }
  ep.setup_s = seconds_between(s0, Clock::now());

  SystemTally tally;
  std::uint64_t transitions = 0;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const double cpu0 = process_cpu_seconds();
  const auto w0 = Clock::now();
  for (const std::uint64_t seed : seeds) {
    for (const WorkloadSpec& spec : specs) {
      RunResult r;
      if (opt.tracer != nullptr) {
        const TracedCall c = traced_run(spec, seed, *opt.tracer, tally, ep);
        r = c.result;
        transitions += c.transitions;
      } else {
        const auto c0 = Clock::now();
        r = run_workload(spec, seed);
        ep.round_us.push_back(seconds_between(c0, Clock::now()) * 1e6 /
                              static_cast<double>(spec.rounds));
      }
      if (!r.safety_clean) ep.errors.push_back("safety: " + r.safety_report);
      if (r.arrivals > r.injected) ep.errors.push_back("ledger: arrivals > injected");
      fold(h, r);
      ep.rounds += spec.rounds;
      ep.deliveries += r.arrivals;
    }
  }
  ep.wall_s = seconds_between(w0, Clock::now());
  ep.cpu_s = process_cpu_seconds() - cpu0;
  ep.peak_rss_mb = peak_rss_mb();
  ep.digest = h;
  if (opt.tracer != nullptr) {
    note_core_counts(tally, ep);
    ep.counts["failure.transitions"] = static_cast<double>(transitions);
  }
  return ep;
}

void paper_figs_layers(const std::vector<Episode>& eps, const Tracer& tr,
                       MetricSet& out) {
  core_per_layer(eps, tr, "sim.update", 64, out);
  common_per_layer(eps, out);
  const double rounds = static_cast<double>(tr.rounds());
  const auto us = [&](const char* span) {
    return static_cast<double>(tr.totals(span).total_ns) / 1e3 / rounds;
  };
  out["sim.update_us_per_round"] =
      static_cast<double>(tr.totals("sim.update").self_ns) / 1e3 / rounds +
      us("core.route") + us("core.signal") + us("core.move") + us("core.inject");
  out["sim.safety_monitor_us_per_round"] = us("sim.safety_monitor");
  out["sim.observers_us_per_round"] = us("sim.observers");
  out["failure.apply_us_per_round"] = us("failure.apply");
  for (const Episode& e : eps) {
    if (e.variant != Variant::kTraced) continue;
    out["failure.transitions_per_round"] =
        e.counts.at("failure.transitions") / static_cast<double>(e.rounds);
    break;
  }
}

}  // namespace

Workload paper_figs_workload() {
  return {"paper_figs", {Variant::kPlain, Variant::kTraced}, 64, run_paper_figs,
          paper_figs_layers};
}

}  // namespace scenbench
