// Shared pieces of the scenario benchmark: the episode record every
// workload fills, the workload table, metric sets, and the helpers that
// time a System round loop with tracing on or off.
//
// An *episode* is one whole-scenario run: build the world from the seed
// (carve, seed entities, warm up), then a fixed number of timed rounds,
// then the correctness checks. A benchmark run repeats episodes until the
// requested seconds of timed rounds are spent, so every episode of a seed
// does identical work and must end in the identical state digest.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "failure/failure_model.hpp"

namespace scenbench {

using Clock = std::chrono::steady_clock;

class Tracer;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);
/// CPU seconds consumed by the whole process (all threads).
[[nodiscard]] double process_cpu_seconds();
/// The process's peak resident set so far (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Which configuration an episode runs. kPlain is the end-to-end
/// configuration; the others are the traced run and the untraced twins
/// a per-layer metric is derived from.
enum class Variant {
  kPlain,
  kTraced,
  kSerialTwin,  ///< dense_crowd: same seed, serial engine
  kDetached,    ///< sparse_field: same seed, no MetricsRegistry
  kBarriered,   ///< dense_crowd: same seed, a no-op PhaseHook (barriered engine)
};
[[nodiscard]] const char* to_string(Variant v);

struct Episode {
  Variant variant = Variant::kPlain;
  double setup_s = 0.0;          ///< build, carve, seed and warm-up
  double wall_s = 0.0;           ///< the timed rounds
  double cpu_s = 0.0;            ///< process CPU over the timed rounds
  /// VmHWM right after the timed rounds, before the checks allocate.
  double peak_rss_mb = 0.0;
  std::uint64_t rounds = 0;      ///< timed rounds (protocol rounds)
  std::uint64_t deliveries = 0;  ///< entities consumed during them
  std::uint64_t digest = 0;      ///< state digest at the end
  std::vector<double> round_us;  ///< wall of each timed update(), µs
  /// Exact work counts over the timed rounds, keyed by layer.name; equal
  /// for every episode of a seed, traced or not.
  std::map<std::string, double> counts;
  std::vector<std::string> errors;  ///< failed correctness checks
};

struct EpisodeOptions {
  std::uint64_t seed = 1;
  Variant variant = Variant::kPlain;
  Tracer* tracer = nullptr;  ///< non-null iff variant == kTraced
  std::uint64_t rounds = 0;  ///< timed rounds; 0 = the workload's default
};

/// Metric name → value; units come from the tables in harness.cpp.
using MetricSet = std::map<std::string, double>;

struct Workload {
  const char* name;
  /// Variants one trace cycle runs, in order; the first is kPlain.
  std::vector<Variant> trace_variants;
  /// Spans kept: one round in this many.
  std::uint64_t keep_every;
  Episode (*run)(const EpisodeOptions&);
  /// Fills the workload's per-layer metrics from a trace run's episodes.
  void (*per_layer)(const std::vector<Episode>&, const Tracer&, MetricSet&);
};

[[nodiscard]] Workload paper_figs_workload();
[[nodiscard]] Workload sparse_field_workload();
[[nodiscard]] Workload dense_crowd_workload();
[[nodiscard]] Workload chunked_conveyor_workload();
[[nodiscard]] Workload lossy_msg_workload();
[[nodiscard]] std::vector<Workload> all_workloads();

struct MetricDef {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

// --- statistics -------------------------------------------------------

/// Linear-interpolated quantile of `v` (copied and sorted), q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
/// Median over the episodes of `variant` of f(episode).
template <typename F>
[[nodiscard]] double median_of(const std::vector<Episode>& eps,
                               Variant variant, F&& f) {
  std::vector<double> v;
  for (const Episode& e : eps) {
    if (e.variant == variant) v.push_back(f(e));
  }
  return median(std::move(v));
}

// --- System round loops ----------------------------------------------

/// Exact per-round work of a System, summed over the timed rounds.
struct SystemTally {
  std::uint64_t route_cells = 0;
  std::uint64_t signal_cells = 0;
  std::uint64_t move_cells = 0;
  std::uint64_t moved = 0;     ///< cells that applied a movement
  std::uint64_t blocked = 0;   ///< blocked token grants
  std::uint64_t injected = 0;  ///< entities the sources created
  std::uint64_t arrivals = 0;
};

/// Adds one round's scheduler visits and events to `t`.
void tally_round(const cellflow::System& sys, const cellflow::RoundEvents& ev,
                 SystemTally& t);

/// Runs `rounds` untimed rounds (warm-up), counting injections into
/// `injected`.
void warm_up(cellflow::System& sys, std::uint64_t rounds,
             std::uint64_t& injected);

/// Runs the timed rounds of an episode. Untraced, records the wall of
/// each update() in ep.round_us; traced (`tracer` non-null), records
/// spans "round" > "failure.apply" | "core.update" > "core.route" |
/// "core.signal" | "core.move" | "core.inject" via the PhaseHook. Fills
/// wall_s, cpu_s, peak_rss_mb, rounds, deliveries and returns the tally.
SystemTally run_system_rounds(cellflow::System& sys,
                              cellflow::FailureModel* failures,
                              std::uint64_t rounds, Tracer* tracer,
                              Episode& ep);

/// End-of-episode checks for a System: the §III-A oracles (check_all),
/// the entity ledger (seeded + injected = arrivals + resident), and
/// the state digest.
void finish_system_episode(const cellflow::System& sys, std::uint64_t seeded,
                           std::uint64_t injected, Episode& ep);

/// Copies the tally into ep.counts under "core.*".
void note_core_counts(const SystemTally& t, Episode& ep);

/// The core.* per-layer metrics of a traced System run: phase timings,
/// visited-cell ratios, exact counts (from the first episode carrying
/// them), and the share of the `update_span` spans covered by children.
void core_per_layer(const std::vector<Episode>& eps, const Tracer& tracer,
                    const char* update_span, int grid_cells, MetricSet& out);

/// trace_overhead_pct and thread_pool.cpu_per_wall, shared by all
/// workloads: traced vs untraced rounds/s on the same engine (kBarriered
/// where the workload runs it, else kPlain), and CPU ÷ wall of kPlain.
void common_per_layer(const std::vector<Episode>& eps, MetricSet& out);

}  // namespace scenbench
