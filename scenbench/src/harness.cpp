#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <string>

#include "core/predicates.hpp"
#include "obs/alloc_stats.hpp"
#include "snapshot/snapshot.hpp"
#include "trace.hpp"

namespace scenbench {

using namespace cellflow;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  return static_cast<double>(obs::process_memory().vm_hwm_bytes) / 1e6;
}

const char* to_string(Variant v) {
  switch (v) {
    case Variant::kPlain: return "plain";
    case Variant::kTraced: return "traced";
    case Variant::kSerialTwin: return "serial_twin";
    case Variant::kDetached: return "detached";
    case Variant::kBarriered: return "barriered";
  }
  return "?";
}

std::vector<Workload> all_workloads() {
  return {paper_figs_workload(), sparse_field_workload(),
          dense_crowd_workload(), chunked_conveyor_workload(),
          lossy_msg_workload()};
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"rounds_per_s", "1/s"},
      {"deliveries_per_s", "1/s"},
      {"round_p50_us", "us"},
      {"cpu_us_per_round", "us"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"core.route_us_per_round", "us"},
      {"core.signal_us_per_round", "us"},
      {"core.move_us_per_round", "us"},
      {"core.inject_us_per_round", "us"},
      {"core.route_ns_per_visited_cell", "ns"},
      {"core.signal_ns_per_visited_cell", "ns"},
      {"core.move_ns_per_visited_cell", "ns"},
      {"core.route_cells_per_round", "cells"},
      {"core.signal_cells_per_round", "cells"},
      {"core.move_cells_per_round", "cells"},
      {"core.grant_ratio", "ratio"},
      {"core.round_ns_per_grid_cell", "ns"},
      {"core.phase_coverage_pct", "%"},
      {"thread_pool.speedup_vs_serial", "x"},
      {"thread_pool.cpu_per_wall", "ratio"},
      {"obs.metrics_us_per_round", "us"},
      {"obs.metrics_overhead_pct", "%"},
      {"sim.update_us_per_round", "us"},
      {"sim.safety_monitor_us_per_round", "us"},
      {"sim.observers_us_per_round", "us"},
      {"failure.apply_us_per_round", "us"},
      {"failure.transitions_per_round", "count"},
      {"chunk.us_per_round", "us"},
      {"chunk.live_chunks", "chunks"},
      {"chunk.parked_chunks", "chunks"},
      {"chunk.ns_per_live_cell", "ns"},
      {"chunk.resident_mb_peak", "MB"},
      {"chunk.route_cells_per_round", "cells"},
      {"chunk.signal_cells_per_round", "cells"},
      {"chunk.move_cells_per_round", "cells"},
      {"chunk.materialized_per_round", "chunks"},
      {"chunk.parked_per_round", "chunks"},
      {"chunk.unparked_per_round", "chunks"},
      {"msg.dist_us_per_round", "us"},
      {"msg.intent_us_per_round", "us"},
      {"msg.grant_us_per_round", "us"},
      {"msg.transfer_us_per_round", "us"},
      {"msg.ack_us_per_round", "us"},
      {"msg.inject_us_per_round", "us"},
      {"msg.deferred_per_round", "count"},
      {"msg.messages_per_delivery", "ratio"},
      {"net.messages_per_round", "count"},
      {"net.ns_per_message", "ns"},
      {"net.dropped_per_round", "count"},
      {"trace_overhead_pct", "%"},
  };
  return defs;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void tally_round(const System& sys, const RoundEvents& ev, SystemTally& t) {
  const System::SchedulerStats& s = sys.last_scheduler_stats();
  t.route_cells += s.route_cells;
  t.signal_cells += s.signal_cells;
  t.move_cells += s.move_cells;
  t.moved += ev.moved.size();
  t.blocked += ev.blocked.size();
  t.injected += ev.injected.size();
  t.arrivals += ev.arrivals;
}

void warm_up(System& sys, std::uint64_t rounds, std::uint64_t& injected) {
  for (std::uint64_t k = 0; k < rounds; ++k) injected += sys.update().injected.size();
}

SystemTally run_system_rounds(System& sys, FailureModel* failures,
                              std::uint64_t rounds, Tracer* tracer,
                              Episode& ep) {
  SystemTally t;

  if (tracer != nullptr) {
    // Phase boundaries: the hook fires after each phase on the calling
    // thread, so each phase span runs from the previous boundary.
    sys.set_phase_hook([tracer](const System&, UpdatePhase phase) {
      const auto now = Clock::now();
      tracer->close(now);
      switch (phase) {
        case UpdatePhase::kAfterRoute: tracer->open("core.signal", now); break;
        case UpdatePhase::kAfterSignal: tracer->open("core.move", now); break;
        case UpdatePhase::kAfterMove: tracer->open("core.inject", now); break;
        case UpdatePhase::kAfterInject: break;
      }
    });
  } else {
    ep.round_us.reserve(ep.round_us.size() + rounds);
  }

  const double cpu0 = process_cpu_seconds();
  const auto w0 = Clock::now();
  for (std::uint64_t k = 0; k < rounds; ++k) {
    if (tracer != nullptr) {
      tracer->begin_round(sys.round());
      const auto r0 = Clock::now();
      tracer->open("round", r0);
      auto u0 = r0;
      if (failures != nullptr) {
        tracer->open("failure.apply", r0);
        failures->apply(sys);
        u0 = Clock::now();
        tracer->close(u0);
      }
      tracer->open("core.update", u0);
      tracer->open("core.route", u0);
      const RoundEvents& ev = sys.update();
      const auto u1 = Clock::now();
      tracer->close(u1);
      tracer->close(u1);
      tally_round(sys, ev, t);
    } else {
      if (failures != nullptr) failures->apply(sys);
      const auto u0 = Clock::now();
      const RoundEvents& ev = sys.update();
      const auto u1 = Clock::now();
      ep.round_us.push_back(seconds_between(u0, u1) * 1e6);
      tally_round(sys, ev, t);
    }
  }
  const auto w1 = Clock::now();
  ep.cpu_s += process_cpu_seconds() - cpu0;
  ep.wall_s += seconds_between(w0, w1);
  ep.peak_rss_mb = peak_rss_mb();
  ep.rounds += rounds;
  ep.deliveries += t.arrivals;
  if (tracer != nullptr) sys.set_phase_hook(nullptr);
  return t;
}

void finish_system_episode(const System& sys, std::uint64_t seeded,
                           std::uint64_t injected, Episode& ep) {
  for (const Violation& v : check_all(sys)) {
    ep.errors.push_back("oracle: " + to_string(v));
  }
  if (seeded + injected != sys.total_injected() ||
      sys.total_injected() != sys.total_arrivals() + sys.entity_count()) {
    ep.errors.push_back(
        "ledger: seeded " + std::to_string(seeded) + " + injected " +
        std::to_string(injected) + " vs created " +
        std::to_string(sys.total_injected()) + " = arrivals " +
        std::to_string(sys.total_arrivals()) + " + resident " +
        std::to_string(sys.entity_count()));
  }
  ep.digest = snapshot::state_digest(sys);
}

void note_core_counts(const SystemTally& t, Episode& ep) {
  ep.counts["core.route_cells"] = static_cast<double>(t.route_cells);
  ep.counts["core.signal_cells"] = static_cast<double>(t.signal_cells);
  ep.counts["core.move_cells"] = static_cast<double>(t.move_cells);
  ep.counts["core.moved"] = static_cast<double>(t.moved);
  ep.counts["core.blocked"] = static_cast<double>(t.blocked);
  ep.counts["core.injected"] = static_cast<double>(t.injected);
  ep.counts["core.arrivals"] = static_cast<double>(t.arrivals);
}

void core_per_layer(const std::vector<Episode>& eps, const Tracer& tracer,
                    const char* update_span, int grid_cells, MetricSet& out) {
  const double rounds = static_cast<double>(tracer.rounds());
  const auto counted = std::find_if(eps.begin(), eps.end(), [](const Episode& e) {
    return e.counts.count("core.route_cells") != 0;
  });
  if (rounds == 0.0 || counted == eps.end()) return;
  // Exact counts: identical in every episode of the seed.
  const Episode& e = *counted;
  const double r = static_cast<double>(e.rounds);
  const auto count = [&e](const char* key) {
    const auto it = e.counts.find(key);
    return it == e.counts.end() ? 0.0 : it->second;
  };
  const double route_cells = count("core.route_cells");
  const double signal_cells = count("core.signal_cells");
  const double move_cells = count("core.move_cells");
  out["core.route_cells_per_round"] = route_cells / r;
  out["core.signal_cells_per_round"] = signal_cells / r;
  out["core.move_cells_per_round"] = move_cells / r;
  out["core.grant_ratio"] =
      signal_cells > 0.0 ? count("core.moved") / signal_cells : 0.0;

  const auto us = [&](const char* span) {
    return static_cast<double>(tracer.totals(span).total_ns) / 1e3 / rounds;
  };
  const auto ns_per = [](double us_per_round, double cells_per_round) {
    return cells_per_round > 0.0 ? us_per_round * 1e3 / cells_per_round : 0.0;
  };
  const double route = us("core.route");
  const double signal = us("core.signal");
  const double move = us("core.move");
  const double inject = us("core.inject");
  const Tracer::Totals update_spans = tracer.totals(update_span);
  const double update = static_cast<double>(update_spans.total_ns) / 1e3 / rounds;
  out["core.route_us_per_round"] = route;
  out["core.signal_us_per_round"] = signal;
  out["core.move_us_per_round"] = move;
  out["core.inject_us_per_round"] = inject;
  out["core.route_ns_per_visited_cell"] = ns_per(route, route_cells / r);
  out["core.signal_ns_per_visited_cell"] = ns_per(signal, signal_cells / r);
  out["core.move_ns_per_visited_cell"] = ns_per(move, move_cells / r);
  out["core.round_ns_per_grid_cell"] = update * 1e3 / grid_cells;
  out["core.phase_coverage_pct"] =
      update_spans.total_ns > 0
          ? 100.0 * (1.0 - static_cast<double>(update_spans.self_ns) /
                               static_cast<double>(update_spans.total_ns))
          : 0.0;
}

void common_per_layer(const std::vector<Episode>& eps, MetricSet& out) {
  const auto rate = [](const Episode& e) {
    return static_cast<double>(e.rounds) / e.wall_s;
  };
  // Tracing forces the engine the hook needs; compare with that engine.
  const bool barriered = std::any_of(eps.begin(), eps.end(), [](const Episode& e) {
    return e.variant == Variant::kBarriered;
  });
  const double untraced =
      median_of(eps, barriered ? Variant::kBarriered : Variant::kPlain, rate);
  const double traced = median_of(eps, Variant::kTraced, rate);
  if (traced > 0.0) out["trace_overhead_pct"] = 100.0 * (untraced / traced - 1.0);
  out["thread_pool.cpu_per_wall"] = median_of(
      eps, Variant::kPlain, [](const Episode& e) { return e.cpu_s / e.wall_s; });
}

}  // namespace scenbench
