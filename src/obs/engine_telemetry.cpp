#include "obs/engine_telemetry.hpp"

namespace cellflow::obs {

namespace {

Labels with_phase(std::string_view realization, const char* phase) {
  return Labels{{"phase", phase}, {"realization", std::string(realization)}};
}

Labels with_component(std::string_view realization, const char* component) {
  return Labels{{"component", component},
                {"realization", std::string(realization)}};
}

// Round durations: 1 µs .. 1 s, decade edges (a dense-50 serial round is
// ~100 µs; a pathological parallel round can reach tens of ms).
const std::vector<double> kRoundBounds = {1e3, 1e4, 1e5, 1e6,
                                          1e7, 1e8, 1e9};
// Imbalance = max/mean shard span; 1.0 is perfect balance.
const std::vector<double> kImbalanceBounds = {1.0, 1.25, 1.5,  2.0,
                                              3.0, 5.0,  10.0, 25.0};

}  // namespace

EngineTelemetry::EngineTelemetry(MetricsRegistry& registry,
                                 std::string_view realization) {
  const Labels realization_only{{"realization", std::string(realization)}};
  round_ns_ = &registry.histogram(
      "cellflow_round_duration_ns",
      "Wall-clock duration of one protocol round (ns)", kRoundBounds,
      realization_only);
  const char* imbalance_help =
      "Per-phase shard imbalance: max/mean shard span (1.0 = balanced)";
  imbalance_route_ =
      &registry.histogram("cellflow_phase_imbalance", imbalance_help,
                          kImbalanceBounds, with_phase(realization, "route"));
  imbalance_signal_ =
      &registry.histogram("cellflow_phase_imbalance", imbalance_help,
                          kImbalanceBounds, with_phase(realization, "signal"));
  imbalance_move_ =
      &registry.histogram("cellflow_phase_imbalance", imbalance_help,
                          kImbalanceBounds, with_phase(realization, "move"));
  const char* component_help =
      "Wall-equivalent round time attributed to each engine component (ns)";
  work_total_ =
      &registry.counter("cellflow_engine_component_ns_total", component_help,
                        with_component(realization, "work"));
  barrier_total_ =
      &registry.counter("cellflow_engine_component_ns_total", component_help,
                        with_component(realization, "barrier_wait"));
  dispatch_total_ =
      &registry.counter("cellflow_engine_component_ns_total", component_help,
                        with_component(realization, "dispatch"));
  merge_total_ =
      &registry.counter("cellflow_engine_component_ns_total", component_help,
                        with_component(realization, "merge"));
  workers_ = &registry.gauge("cellflow_engine_workers",
                             "Execution width of the round engine",
                             realization_only);
  parallel_fraction_ = &registry.gauge(
      "cellflow_engine_parallel_work_fraction",
      "Pooled work / (width x round wall), most recent round",
      realization_only);
  serial_fraction_ = &registry.gauge(
      "cellflow_engine_serial_fraction",
      "Amdahl estimate over the run: 1 - wall-equivalent work / round wall",
      realization_only);
  pool_dispatches_ = &registry.counter(
      "cellflow_engine_pool_dispatches_total",
      "Persistent-pool batches published (run/run_plan dispatches)",
      realization_only);
  const char* wake_help =
      "Pool executor wake-ups by kind: spin (epoch observed while "
      "spinning) vs park (condvar round-trip)";
  spin_wakes_ = &registry.counter(
      "cellflow_engine_pool_wakes_total", wake_help,
      Labels{{"kind", "spin"}, {"realization", std::string(realization)}});
  park_wakes_ = &registry.counter(
      "cellflow_engine_pool_wakes_total", wake_help,
      Labels{{"kind", "park"}, {"realization", std::string(realization)}});
}

void EngineTelemetry::record_round(const RoundBreakdown& b) {
  totals_.rounds += 1;
  totals_.round_ns += b.round_ns;
  totals_.work_ns += b.work_ns;
  totals_.barrier_wait_ns += b.barrier_wait_ns;
  totals_.dispatch_ns += b.dispatch_ns;
  totals_.merge_ns += b.merge_ns;
  totals_.imbalance_route_sum += b.imbalance_route;
  totals_.imbalance_signal_sum += b.imbalance_signal;
  totals_.imbalance_move_sum += b.imbalance_move;
  totals_.dispatches += b.pool_dispatches;
  totals_.spin_wakes += b.pool_spin_wakes;
  totals_.park_wakes += b.pool_park_wakes;

  round_ns_->observe(static_cast<double>(b.round_ns));
  imbalance_route_->observe(b.imbalance_route);
  imbalance_signal_->observe(b.imbalance_signal);
  imbalance_move_->observe(b.imbalance_move);
  work_total_->inc(b.work_ns);
  barrier_total_->inc(b.barrier_wait_ns);
  dispatch_total_->inc(b.dispatch_ns);
  merge_total_->inc(b.merge_ns);
  workers_->set(static_cast<double>(b.workers));
  parallel_fraction_->set(b.parallel_work_fraction);
  serial_fraction_->set(totals_.serial_fraction());
  if (b.pool_dispatches > 0) pool_dispatches_->inc(b.pool_dispatches);
  if (b.pool_spin_wakes > 0) spin_wakes_->inc(b.pool_spin_wakes);
  if (b.pool_park_wakes > 0) park_wakes_->inc(b.pool_park_wakes);
}

}  // namespace cellflow::obs
