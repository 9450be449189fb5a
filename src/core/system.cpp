#include "core/system.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "core/move.hpp"
#include "core/route.hpp"
#include "core/signal.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/profiler.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace cellflow {

namespace {

// Reporting-only clock difference in whole ns, clamped at zero.
std::uint64_t span_ns(obs::PhaseProfiler::Clock::time_point a,
                      obs::PhaseProfiler::Clock::time_point b) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

// --- active-set bitsets: bit k of word k/64 stands for dense cell k ----

void set_bit(std::vector<std::uint64_t>& bits, std::size_t k) {
  bits[k >> 6] |= std::uint64_t{1} << (k & 63);
}

void clear_bit(std::vector<std::uint64_t>& bits, std::size_t k) {
  bits[k >> 6] &= ~(std::uint64_t{1} << (k & 63));
}

void flip_bit(std::vector<std::uint64_t>& bits, std::size_t k) {
  bits[k >> 6] ^= std::uint64_t{1} << (k & 63);
}

bool test_bit(const std::vector<std::uint64_t>& bits, std::size_t k) {
  return ((bits[k >> 6] >> (k & 63)) & 1u) != 0;
}

constexpr std::uint64_t kAll = ~std::uint64_t{0};

// Calls visit(k) for every set bit k in [begin, end) of the bitset whose
// word w is word_at(w), in ascending k — the order of the plain per-cell
// loop it stands in for. Zero words are skipped whole; a full word runs
// as that plain loop (a crowded grid is all ones); other words are
// walked with ctz. Shard ranges are not 64-aligned, so the words at
// either end are masked to the range.
template <typename WordAt, typename Visit>
void for_each_set_bit(std::size_t begin, std::size_t end, WordAt&& word_at,
                      Visit&& visit) {
  if (begin >= end) return;
  const std::size_t first = begin >> 6;
  const std::size_t last = (end - 1) >> 6;
  for (std::size_t w = first; w <= last; ++w) {
    std::uint64_t word = word_at(w);
    if (w == first) word &= kAll << (begin & 63);
    if (w == last) word &= kAll >> (63 - ((end - 1) & 63));
    const std::size_t base = w << 6;
    if (word == kAll) {
      for (std::size_t k = base; k < base + 64; ++k) visit(k);
      continue;
    }
    for (; word != 0; word &= word - 1)
      visit(base + static_cast<std::size_t>(std::countr_zero(word)));
  }
}

template <typename Visit>
void for_each_set_bit(const std::vector<std::uint64_t>& bits,
                      std::size_t begin, std::size_t end, Visit&& visit) {
  for_each_set_bit(
      begin, end, [&bits](std::size_t w) { return bits[w]; },
      std::forward<Visit>(visit));
}

// The ne_prev_sizes bucket a cell with |NEPrev| = n tallies.
std::size_t ne_prev_bucket(std::size_t n) {
  return std::min<std::size_t>(
      n, std::tuple_size_v<decltype(obs::ProtocolCounts::ne_prev_sizes)> - 1);
}

}  // namespace

ParallelPolicy parallel_policy_from_env() {
  const char* raw = std::getenv("CELLFLOW_THREADS");
  if (raw == nullptr || *raw == '\0') return ParallelPolicy::serial();
  // Full-match from_chars, like CliArgs::get_int: strtol would accept
  // leading whitespace and a '+' sign (" 3", "+3").
  const std::string_view text(raw);
  int n = 0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), n);
  if (res.ec != std::errc{} || res.ptr != text.data() + text.size() || n < 0 ||
      n > 1024)
    throw std::runtime_error(
        std::string("CELLFLOW_THREADS: expected an integer in [0, 1024], "
                    "got '") +
        raw + "'");
  return n == 0 ? ParallelPolicy::serial() : ParallelPolicy::parallel(n);
}

void canonical_transfer_order(const Grid& grid,
                              std::vector<PendingTransfer>& transfers) {
  const auto by_origin = [&grid](const PendingTransfer& a,
                                 const PendingTransfer& b) {
    return grid.index_of(a.from) < grid.index_of(b.from);
  };
  // The engines produce this order by construction (ascending shards,
  // in-order within each), so the common case is a linear verification
  // pass; a stable sort of an already-sorted sequence is the identity,
  // so skipping it cannot change the result — it only skips the sort's
  // temporary-buffer allocation on the hot path.
  if (std::is_sorted(transfers.begin(), transfers.end(), by_origin)) return;
  std::stable_sort(transfers.begin(), transfers.end(), by_origin);
}

System::System(SystemConfig config, std::unique_ptr<ChoosePolicy> choose,
               std::unique_ptr<SourcePolicy> source)
    : config_(std::move(config)),
      grid_(config_.side),
      cells_(grid_.cell_count()),
      choose_(choose ? std::move(choose)
                     : std::make_unique<RoundRobinChoose>()),
      source_(source ? std::move(source)
                     : std::make_unique<EntryEdgeSource>()) {
  CF_EXPECTS_MSG(grid_.contains(config_.target), "target outside grid");
  for (const CellId s : config_.sources) {
    CF_EXPECTS_MSG(grid_.contains(s), "source outside grid");
    CF_EXPECTS_MSG(s != config_.target, "a cell cannot be source and target");
  }
  // Canonical injection order: sources visit in cell-id order no matter
  // how the configuration listed them (mirrored by MessageSystem).
  std::sort(config_.sources.begin(), config_.sources.end());
  config_.sources.erase(
      std::unique(config_.sources.begin(), config_.sources.end()),
      config_.sources.end());
  // Initial state (Figure 3): everything ⊥/∞/empty except the target's
  // distance, which anchors the routing computation at 0.
  cells_[grid_.index_of(config_.target)].dist = Dist::zero();
  target_k_ = grid_.index_of(config_.target);
  dist_snapshot_.resize(cells_.size());
  // Flatten the (immutable) grid topology into the dense tables the
  // phase loops index directly — see the member comments in system.hpp.
  nbr_idx_.resize(cells_.size());
  cell_id_.resize(cells_.size());
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    const CellId id = grid_.id_of(k);
    cell_id_[k] = id;
    for (std::size_t d = 0; d < kAllDirections.size(); ++d) {
      const auto nb = grid_.neighbor(id, kAllDirections[d]);
      nbr_idx_[k][d] =
          nb ? static_cast<std::uint32_t>(grid_.index_of(*nb)) : kNoNbr;
    }
  }
  rebuild_active_sets();
  set_parallel_policy(parallel_policy_from_env());
}

void System::set_round_scheduler(RoundScheduler scheduler) {
  if (scheduler_ == scheduler) return;
  scheduler_ = scheduler;
  // Exhaustive rounds maintain none of the scheduler state, so entering
  // kActiveSet must re-derive all of it from the current protocol state.
  if (scheduler_ == RoundScheduler::kActiveSet) rebuild_active_sets();
}

void System::rebuild_active_sets() {
  const std::size_t n = cells_.size();
  const std::size_t words = (n + 63) / 64;
  // Every cell armed; the bits past the last cell stay clear.
  route_armed_.assign(words, kAll);
  if (n % 64 != 0) route_armed_.back() >>= 64 - n % 64;
  signal_armed_ = route_armed_;
  blocked_.assign(words, 0);
  grant_to_.assign(words, 0);
  blocked_hist_ = {};
  occ_b_.assign(n, 0);
  occ_refs_.assign(n, 0);
  occ_nbhd_.assign(words, 0);
  live_cells_ = 0;
  live_degree_sum_ = 0;
  for (std::size_t k = 0; k < n; ++k) {
    dist_snapshot_[k] = cells_[k].dist;
    if (occupied(cells_[k])) apply_occupancy_flip(k);
    if (!cells_[k].failed) count_live(k, true);
  }
}

void System::arm_route_neighborhood(std::size_t k) {
  set_bit(route_armed_, k);
  for (const std::uint32_t nk : nbr_idx_[k])
    if (nk != kNoNbr) set_bit(route_armed_, nk);
}

void System::arm_signal_neighborhood(std::size_t k) {
  set_bit(signal_armed_, k);
  for (const std::uint32_t nk : nbr_idx_[k])
    if (nk != kNoNbr) set_bit(signal_armed_, nk);
}

void System::arm_signal_around_route() {
  for_each_set_bit(route_armed_, 0, cells_.size(),
                   [this](std::size_t k) { arm_signal_neighborhood(k); });
}

void System::forget_blocked(std::size_t k) {
  if (!test_bit(blocked_, k)) return;
  clear_bit(blocked_, k);
  --blocked_hist_[ne_prev_bucket(cells_[k].ne_prev.size())];
}

void System::note_grant(std::size_t k) {
  // Figure 6's guard, evaluated from the granting side: the grantee moves
  // iff it is live and routes into k. A corrupted signal may name a
  // non-neighbor or a cell off the grid; the guard holds the same way.
  const OptCellId& s = cells_[k].signal;
  if (!s.has_value() || !grid_.contains(*s)) return;
  const std::size_t j = grid_.index_of(*s);
  if (!cells_[j].failed && cells_[j].next == OptCellId{cell_id_[k]})
    set_bit(grant_to_, j);
}

void System::apply_occupancy_flip(std::size_t k) {
  occ_b_[k] ^= 1u;
  const bool up = occ_b_[k] != 0;
  const auto bump = [this, up](std::size_t j) {
    if (up) {
      if (occ_refs_[j]++ == 0) set_bit(occ_nbhd_, j);
    } else if (--occ_refs_[j] == 0) {
      clear_bit(occ_nbhd_, j);
    }
  };
  bump(k);
  for (const std::uint32_t nk : nbr_idx_[k])
    if (nk != kNoNbr) bump(nk);
}

void System::count_live(std::size_t k, bool live) noexcept {
  // The target tallies no relaxations (route_cell pins it at 0).
  std::uint64_t degree = 0;
  if (k != target_k_) {
    for (const std::uint32_t nk : nbr_idx_[k])
      if (nk != kNoNbr) ++degree;
  }
  if (live) {
    ++live_cells_;
    live_degree_sum_ += degree;
  } else {
    --live_cells_;
    live_degree_sum_ -= degree;
  }
}

void System::refresh_occupancy(std::size_t k) {
  if (occupied(cells_[k]) != (occ_b_[k] != 0)) apply_occupancy_flip(k);
}

void System::note_members_change(std::size_t k, bool was_empty) {
  if (cells_[k].members.empty() != was_empty) {
    arm_signal_neighborhood(k);
  } else {
    set_bit(signal_armed_, k);
  }
  refresh_occupancy(k);
}

void System::note_control_mutation(std::size_t k) {
  // The exhaustive engine re-reads every dist each round and rewrites
  // every cell's control state; an external mutation therefore forces
  // the active scheduler to (a) keep the snapshot invariant, (b) rerun
  // Route and Signal over the affected neighborhood next round, and (c)
  // refresh the occupancy of the mutated cell.
  dist_snapshot_[k] = cells_[k].dist;
  arm_route_neighborhood(k);
  arm_signal_neighborhood(k);
  refresh_occupancy(k);
}

void System::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry != nullptr
                 ? std::make_unique<obs::ProtocolMetrics>(*registry, "shared")
                 : nullptr;
  round_counts_.reset();
}

void System::set_profiler(obs::PhaseProfiler* profiler) {
  profiler_ = profiler;
  sync_pool_timing();
}

void System::set_telemetry(obs::EngineTelemetry* telemetry) {
  telemetry_ = telemetry;
  sync_pool_timing();
}

void System::sync_pool_timing() {
  if (!pool_) return;
  const bool want = profiler_ != nullptr || telemetry_ != nullptr;
  if (want == pool_->timing_enabled()) return;
  pool_->set_timing(want);
  pool_->reset_timings();
  if (want)
    batch_samples_.reserve(static_cast<std::size_t>(pool_->thread_count()));
}

void System::note_phase_timing(int phase_idx, ThreadPool* pool,
                               std::size_t used) {
  // `pooled`: the partition actually ran on workers (parallel_for_shards
  // falls back to the caller for single-shard partitions).
  const bool pooled = pool != nullptr && used > 1;
  if (telemetry_ != nullptr) {
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    for (std::size_t s = 0; s < used; ++s) {
      const std::uint64_t v = scratch_.shards[s].span_ns;
      sum += v;
      if (v > max) max = v;
    }
    round_timing_.imbalance[static_cast<std::size_t>(phase_idx)] =
        (used > 1 && sum > 0) ? static_cast<double>(max) *
                                    static_cast<double>(used) /
                                    static_cast<double>(sum)
                              : 1.0;
    // A phase that ran on the calling thread needs no attribution here:
    // update()'s timed() wrapper counts its whole wall span as serial
    // work (merges and glue included).
  }
  if (pooled && (telemetry_ != nullptr || profiler_ != nullptr)) {
    pool->last_batch_samples(batch_samples_);
    const auto dispatched = pool->last_batch_dispatch();
    const auto done = pool->last_batch_done();
    if (telemetry_ != nullptr && !batch_samples_.empty()) {
      // Wall-equivalent decomposition of the batch that just ran: each
      // participating worker's dispatch+busy+barrier chain spans
      // dispatched->done exactly, so the participant-normalized sums
      // partition the batch wall (see RoundTiming). busy (wake to own
      // last task end) rather than task time, so queue-claim waits and
      // OS preemption gaps inside the batch stay accounted.
      std::uint64_t disp = 0;
      std::uint64_t busy = 0;
      std::uint64_t barrier = 0;
      std::uint64_t task = 0;
      for (const ThreadPool::BatchWorkerSample& w : batch_samples_) {
        disp += span_ns(dispatched, w.wake);
        busy += span_ns(w.wake, w.last_task_end);
        barrier += span_ns(w.last_task_end, done);
        task += w.work_ns;
      }
      const auto n = static_cast<std::uint64_t>(batch_samples_.size());
      round_timing_.pool_dispatch_ns += disp / n;
      round_timing_.pool_busy_ns += busy / n;
      round_timing_.pool_barrier_ns += barrier / n;
      round_timing_.pool_task_ns += task;
      // Caller-resume latency: the last worker stamped `done`, but this
      // thread only continues once the OS reschedules it — on a
      // contended machine that gap is real round time, billed as
      // dispatch (both are scheduling, not protocol work).
      round_timing_.pool_resume_ns +=
          span_ns(done, obs::PhaseProfiler::Clock::now());
    }
    if (profiler_ != nullptr) {
      // Per-worker spans of the batch that just ran: dispatch latency,
      // the task-executing envelope, and the barrier stall — these
      // render as per-worker tracks in the Chrome-trace export, so
      // Perfetto shows exactly which worker idled at which barrier.
      for (const ThreadPool::BatchWorkerSample& w : batch_samples_) {
        profiler_->record_worker("dispatch", round_, w.worker, dispatched,
                                 w.wake);
        profiler_->record_worker("work", round_, w.worker, w.first_task_start,
                                 w.last_task_end);
        profiler_->record_worker("barrier_wait", round_, w.worker,
                                 w.last_task_end, done);
      }
    }
  }
}

void System::set_parallel_policy(const ParallelPolicy& policy) {
  CF_EXPECTS_MSG(policy.num_threads >= 1 && policy.num_threads <= 1024,
                 "ParallelPolicy::num_threads out of [1, 1024]");
  parallel_ = policy;
  if (policy.mode == ParallelPolicy::Mode::kParallel) {
    if (!pool_ || pool_->thread_count() != policy.num_threads) {
      pool_ = std::make_unique<ThreadPool>(policy.num_threads);
      sync_pool_timing();
    }
  } else {
    pool_.reset();
  }
  // One scratch slot per shard the engine can produce (the serial loop
  // and a pinned-serial Signal phase use slot 0 only). Shrinking on a
  // narrower policy would free warmed buffers for nothing, so don't.
  const auto width =
      pool_ ? static_cast<std::size_t>(pool_->thread_count()) : 1;
  if (scratch_.shards.size() < width) scratch_.shards.resize(width);
}

std::size_t System::entity_count() const noexcept {
  std::size_t n = 0;
  for (const CellState& c : cells_) n += c.members.size();
  return n;
}

CellMask System::alive_mask() const {
  CellMask m(grid_);
  for (std::size_t k = 0; k < cells_.size(); ++k)
    if (!cells_[k].failed) m.set(grid_.id_of(k));
  return m;
}

std::vector<Dist> System::reference_distances() const {
  return path_distances(grid_, alive_mask(), config_.target);
}

CellMask System::tc_mask() const {
  return target_connected(grid_, alive_mask(), config_.target);
}

void System::fail(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  const std::size_t k = grid_.index_of(id);
  CellState& c = cells_[k];
  if (!c.failed) {  // idempotent action
    if (metrics_) metrics_->add_failure();
    count_live(k, false);
  }
  forget_blocked(k);
  c.failed = true;
  c.dist = Dist::infinity();  // neighbors stop hearing from it
  c.next = std::nullopt;
  // "A failed cell … never communicates": in the message-passing reading,
  // neighbors read no grant from it, so its shared signal must present
  // as ⊥. The private token and NEPrev are simply lost.
  c.signal = std::nullopt;
  c.token = std::nullopt;
  c.ne_prev.clear();
  note_control_mutation(k);
}

void System::recover(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  const std::size_t k = grid_.index_of(id);
  CellState& c = cells_[k];
  if (!c.failed) return;
  if (metrics_) metrics_->add_recovery();
  count_live(k, true);
  c.failed = false;
  // Reset to initial protocol state (§IV); Route repairs dist/next within
  // O(N²) rounds (Corollary 7). The target re-anchors at 0 so routing can
  // re-stabilize toward it.
  c.dist = (id == config_.target) ? Dist::zero() : Dist::infinity();
  c.next = std::nullopt;
  c.token = std::nullopt;
  c.signal = std::nullopt;
  c.ne_prev.clear();
  // Members are retained: entities that were frozen on the failed cell
  // resume their journey.
  note_control_mutation(k);
}

const RoundEvents& System::update() {
  events_.clear();
  events_.round = round_;

  // Profiling/telemetry wrap (they never feed back into the round) and
  // metrics flush once per round, after the phases — see set_metrics().
  using ProfClock = obs::PhaseProfiler::Clock;
  const bool track = profiler_ != nullptr || telemetry_ != nullptr;
  const auto t_round = track ? ProfClock::now() : ProfClock::time_point{};
  if (telemetry_ != nullptr) round_timing_.reset();
  // `count_serial`: the phase will run entirely on the calling thread,
  // so its whole wall span — body, merges, glue — is telemetry "work"
  // (pooled phases decompose themselves via note_phase_timing instead).
  // Whether a phase pools is decided here exactly the way
  // parallel_for_shards decides it: a pool exists and the partition
  // yields more than one shard; Signal additionally pins serial under a
  // stateful choose policy.
  const bool pooled =
      pool_ != nullptr && shard_count(cells_.size(), pool_->thread_count()) > 1;
  const bool signal_pooled = pooled && choose_->concurrent_safe();
  // Fused-barrier orchestration (DESIGN.md §6): one run_plan dispatch
  // covers the whole round when nothing needs the per-phase barriers —
  // no hook observing intermediate states, no profiler/telemetry
  // measuring them — and shards are wide enough (>= side cells) that
  // the Route→Signal gate only ever spans adjacent shards, which is
  // what makes the in-stage wait deadlock-free.
  const bool fused =
      pooled && !phase_hook_ && !track &&
      cells_.size() / shard_count(cells_.size(), pool_->thread_count()) >=
          static_cast<std::size_t>(config_.side);
  const auto timed = [this, track](const char* name, bool count_serial,
                                   auto&& phase) {
    if (!track) {
      phase();
      return;
    }
    const auto t0 = ProfClock::now();
    phase();
    const auto t1 = ProfClock::now();
    if (profiler_ != nullptr) profiler_->record(name, round_, -1, t0, t1);
    if (count_serial && telemetry_ != nullptr)
      round_timing_.serial_work_ns += span_ns(t0, t1);
  };

  if (fused) {
    run_fused_round();
  } else {
    timed("route", !pooled, [this] { run_route_phase(); });
    if (phase_hook_) phase_hook_(*this, UpdatePhase::kAfterRoute);
    timed("signal", !signal_pooled, [this] { run_signal_phase(); });
    if (phase_hook_) phase_hook_(*this, UpdatePhase::kAfterSignal);
    timed("move", !pooled, [this] { run_move_phase(); });
    if (phase_hook_) phase_hook_(*this, UpdatePhase::kAfterMove);
    timed("inject", true, [this] { run_inject_phase(); });
    if (phase_hook_) phase_hook_(*this, UpdatePhase::kAfterInject);
  }

  const auto t_end = track ? ProfClock::now() : ProfClock::time_point{};
  if (profiler_ != nullptr)
    profiler_->record("round", round_, -1, t_round, t_end);
  if (telemetry_ != nullptr) {
    obs::RoundBreakdown b;
    b.round_ns = span_ns(t_round, t_end);
    b.workers = pool_ ? pool_->thread_count() : 1;
    if (pool_) {
      const DispatchStats ds = pool_->dispatch_stats();
      b.pool_dispatches = ds.dispatches - last_dispatch_stats_.dispatches;
      b.pool_spin_wakes = ds.spin_wakes - last_dispatch_stats_.spin_wakes;
      b.pool_park_wakes = ds.park_wakes - last_dispatch_stats_.park_wakes;
      last_dispatch_stats_ = ds;
    }
    b.work_ns = round_timing_.serial_work_ns + round_timing_.pool_busy_ns;
    b.barrier_wait_ns = round_timing_.pool_barrier_ns;
    b.dispatch_ns =
        round_timing_.pool_dispatch_ns + round_timing_.pool_resume_ns;
    b.merge_ns = round_timing_.merge_ns;
    b.imbalance_route = round_timing_.imbalance[0];
    b.imbalance_signal = round_timing_.imbalance[1];
    b.imbalance_move = round_timing_.imbalance[2];
    if (pool_ && b.round_ns > 0) {
      // Utilization: summed task-body time over the theoretical
      // width × wall budget (busy would overstate it on a preempted
      // machine — preemption gaps are not useful parallelism).
      b.parallel_work_fraction =
          static_cast<double>(round_timing_.pool_task_ns) /
          (static_cast<double>(pool_->thread_count()) *
           static_cast<double>(b.round_ns));
    }
    telemetry_->record_round(b);
    if (profiler_ != nullptr) {
      profiler_->record_counter("imbalance_route", t_end, b.imbalance_route);
      profiler_->record_counter("imbalance_signal", t_end, b.imbalance_signal);
      profiler_->record_counter("imbalance_move", t_end, b.imbalance_move);
      profiler_->record_counter("parallel_work_fraction", t_end,
                                b.parallel_work_fraction);
    }
  }
  if (metrics_) {
    metrics_->add(round_counts_);
    metrics_->add_round();
    round_counts_.reset();
  }
  ++round_;
  return events_;
}

void System::run_fused_round() {
  // One ThreadPool::run_plan dispatch for the whole round (DESIGN.md
  // §6). The legacy path pays a dispatch + full barrier per phase; here
  // the workers wake once and ride three stages:
  //
  //   stage 0 (parallel): Route over grid shards, then — when the
  //     choose policy is concurrent-safe — Signal over the same shard,
  //     gated per shard instead of globally: shard t's Signal half only
  //     needs the Route outputs of shards t-1, t, t+1 (every input a
  //     Signal cell reads lies within `side` cells of it, and update()
  //     only fuses when each shard spans >= side cells). Deadlock-free:
  //     tasks are claimed in ascending order and every task publishes
  //     its Route flag *before* waiting, so the only wait on an
  //     unclaimed task is the highest claimed task waiting on t+1 —
  //     and with >= 2 executors (pooled implies it; the caller is
  //     executor 0) some executor is free to claim t+1.
  //   stage 1 (serial, workers held): the phase merges, in the same
  //     shard order as the legacy path — plus the whole Signal phase
  //     when a stateful choose policy pins it serial.
  //   stage 2 (parallel): Move over grid shards.
  //
  // Same span bodies, same shard ranges, same merge order as the
  // legacy path ⇒ the §6 bit-identity argument is unchanged.
  ThreadPool* pool = pool_.get();
  const std::size_t n = cells_.size();
  const std::size_t used = shard_count(n, pool->thread_count());
  const bool signal_fused = choose_->concurrent_safe();
  const bool active = scheduler_ == RoundScheduler::kActiveSet;

  if (active) {
    arm_signal_around_route();
  } else {
    for (std::size_t k = 0; k < n; ++k) dist_snapshot_[k] = cells_[k].dist;
  }
  const auto nshards = static_cast<std::size_t>(pool->thread_count());
  for (std::size_t s = 0; s < nshards; ++s)
    scratch_.shards[s].begin_phase();

  // Reset the Route→Signal gate while the workers are quiescent.
  if (route_ready_cap_ < used) {
    route_ready_ = std::make_unique<std::atomic<std::uint32_t>[]>(used);
    route_ready_cap_ = used;
  }
  for (std::size_t s = 0; s < used; ++s)
    route_ready_[s].store(0, std::memory_order_relaxed);

  const auto wait_ready = [this](std::size_t t) {
    for (int spin = 0; route_ready_[t].load(std::memory_order_acquire) == 0;
         ++spin) {
      if (spin >= 256) std::this_thread::yield();
    }
  };
  const auto route_signal_stage = [&](std::size_t t) {
    const ShardRange r = shard_range_at(n, used, t);
    route_span(t, r.begin, r.end);
    route_ready_[t].store(1, std::memory_order_release);
    if (signal_fused) {
      if (t > 0) wait_ready(t - 1);
      if (t + 1 < used) wait_ready(t + 1);
      signal_span(t, r.begin, r.end);
    }
  };
  const auto merge_stage = [&](std::size_t) {
    merge_shard_counts(used);
    merge_route_results(used);
    if (signal_fused) {
      merge_signal_results(used);
    } else {
      // Stateful choose policy: Signal pinned serial in slot 0, exactly
      // like the legacy path (the merge then only sees slot 0's output).
      ShardScratch& sc0 = scratch_.shards[0];
      sc0.counts.reset();
      signal_span(0, 0, n);
      merge_signal_results(used);
      if (metrics_) round_counts_.merge(sc0.counts);
    }
    // Re-arm the shard slots for Move: tallies and the visited counter
    // restart per phase (the event buffers were already merged above
    // and are not reused by Move's slots).
    for (std::size_t s = 0; s < used; ++s) {
      scratch_.shards[s].counts.reset();
      scratch_.shards[s].visited = 0;
    }
  };
  const auto move_stage = [&](std::size_t t) {
    const ShardRange r = shard_range_at(n, used, t);
    move_span(t, r.begin, r.end);
  };

  const ThreadPool::PlanStage stages[3] = {
      {/*parallel=*/true, used, route_signal_stage},
      {/*parallel=*/false, 1, merge_stage},
      {/*parallel=*/true, used, move_stage},
  };
  pool->run_plan(stages, 3);

  merge_shard_counts(used);
  merge_move_results(used);
  run_inject_phase();
}

void System::run_route_phase() {
  // Phase-parallel Bellman–Ford: every cell reads its neighbors'
  // *previous-round* dist via dist_snapshot_ (Figure 4 semantics). The
  // snapshot makes the per-cell step a pure function of frozen data;
  // each cell writes only its own dist/next, so the loop shards freely.
  //
  // kExhaustive recopies the snapshot and visits every cell; kActiveSet
  // keeps the snapshot fresh incrementally (only cells whose dist
  // changed need resyncing) and visits only armed cells — a cell is
  // armed exactly when a neighborhood dist changed last round or an
  // external mutation touched it, which is precisely when route_step
  // could produce something new. Skipped live cells owe their would-be
  // relaxations to the ProtocolCounts contract (bit-identical counts
  // across engines); the merge pays them in O(1) from live_degree_sum_.
  if (scheduler_ != RoundScheduler::kActiveSet) {
    for (std::size_t k = 0; k < cells_.size(); ++k)
      dist_snapshot_[k] = cells_[k].dist;
  } else {
    arm_signal_around_route();
  }

  ThreadPool* pool = pool_.get();
  const auto nshards =
      pool ? static_cast<std::size_t>(pool->thread_count()) : 1;
  for (std::size_t s = 0; s < nshards; ++s)
    scratch_.shards[s].begin_phase();

  const std::size_t used =
      shard_count(cells_.size(), static_cast<int>(nshards));
  const bool pooled = pool != nullptr && used > 1;
  // Per-shard spans feed the profiler and the imbalance statistic; a
  // serial phase needs neither (imbalance is 1.0 and timed() already
  // covers the wall), so telemetry alone reads no clocks here.
  const bool shard_timing =
      profiler_ != nullptr || (telemetry_ != nullptr && pooled);
  const auto body = [&](std::size_t s, ShardRange r) {
    const auto t0 = shard_timing ? obs::PhaseProfiler::Clock::now()
                                 : obs::PhaseProfiler::Clock::time_point{};
    route_span(s, r.begin, r.end);
    if (shard_timing) {
      const auto t1 = obs::PhaseProfiler::Clock::now();
      scratch_.shards[s].span_ns = span_ns(t0, t1);
      if (profiler_ != nullptr)
        profiler_->record("route", round_, static_cast<int>(s), t0, t1);
    }
  };
  parallel_for_shards(pool, cells_.size(), body);
  note_phase_timing(0, pool, used);
  // Merge is a separate telemetry component only when the phase pooled
  // (post-barrier serial section); in a serial phase it is simply part
  // of the phase's timed() work span.
  const bool merge_timing = telemetry_ != nullptr && pooled;
  const auto merge_t0 = merge_timing
                            ? obs::PhaseProfiler::Clock::now()
                            : obs::PhaseProfiler::Clock::time_point{};
  merge_shard_counts(nshards);
  merge_route_results(nshards);
  if (merge_timing)
    round_timing_.merge_ns +=
        span_ns(merge_t0, obs::PhaseProfiler::Clock::now());
}

void System::route_span(std::size_t s, std::size_t begin, std::size_t end) {
  ShardScratch& sc = scratch_.shards[s];
  obs::ProtocolCounts* pc = metrics_ ? &sc.counts : nullptr;
  if (scheduler_ != RoundScheduler::kActiveSet) {
    for (std::size_t k = begin; k < end; ++k) route_cell(k, pc, nullptr);
    sc.visited += end - begin;
  } else {
    for_each_set_bit(route_armed_, begin, end, [&](std::size_t k) {
      route_cell(k, pc, &sc.changed);
      ++sc.visited;
    });
  }
}

void System::merge_shard_counts(std::size_t used) {
  // Counter determinism: shard tallies merge in ascending shard order,
  // the same discipline as the event buffers (merging is additive, so
  // the order is a convention, not a correctness requirement).
  if (!metrics_) return;
  for (std::size_t s = 0; s < used; ++s)
    round_counts_.merge(scratch_.shards[s].counts);
}

void System::merge_route_results(std::size_t used) {
  sched_stats_.route_cells = 0;
  for (std::size_t s = 0; s < used; ++s)
    sched_stats_.route_cells += scratch_.shards[s].visited;
  if (scheduler_ == RoundScheduler::kActiveSet) {
    // Post-barrier merge, shard order. The finished Route consumed
    // every armed bit, so clear them all; then sync the snapshot for
    // changed cells and arm their readers (the lattice neighbors) for
    // next round. A cell's own Route output depends only on its
    // neighbors' dists, so its own change does not re-arm itself.
    std::fill(route_armed_.begin(), route_armed_.end(), 0);
    for (std::size_t s = 0; s < used; ++s) {
      for (const std::size_t k : scratch_.shards[s].changed) {
        dist_snapshot_[k] = cells_[k].dist;
        for (const std::uint32_t nk : nbr_idx_[k])
          if (nk != kNoNbr) set_bit(route_armed_, nk);
      }
    }
    if (metrics_) {
      // The exhaustive loop relaxes over every lattice neighbor of every
      // live non-target cell, changing nothing at the skipped ones: the
      // round owes live_degree_sum_ relaxations in total.
      std::uint64_t tallied = 0;
      for (std::size_t s = 0; s < used; ++s)
        tallied += scratch_.shards[s].counts.route_relaxations;
      round_counts_.route_relaxations += live_degree_sum_ - tallied;
    }
  }
}

void System::route_cell(std::size_t k, obs::ProtocolCounts* counts,
                        std::vector<std::size_t>* changed_out) {
  CellState& c = cells_[k];
  const CellId id = cell_id_[k];
  if (c.failed) return;
  if (id == config_.target) {
    // The target anchors routing: dist pinned to 0, next to ⊥. Pinning
    // every round (rather than only at init/recover) also washes out
    // adversarial corruption of the target's control state.
    if (c.dist != Dist::zero()) {
      if (counts != nullptr) ++counts->route_dist_changes;
      if (changed_out != nullptr) changed_out->push_back(k);
    }
    c.dist = Dist::zero();
    c.next = std::nullopt;
    return;
  }

  const std::array<std::uint32_t, 4>& nbr = nbr_idx_[k];
  NeighborDist nds[4];
  std::size_t n = 0;
  for (const std::uint32_t nk : nbr) {
    if (nk == kNoNbr) continue;
    nds[n++] = NeighborDist{cell_id_[nk], dist_snapshot_[nk]};
  }
  const RouteResult r = route_step(std::span<const NeighborDist>(nds, n));
  if (counts != nullptr) {
    counts->route_relaxations += n;
    if (c.dist != r.dist) ++counts->route_dist_changes;
  }
  // Only a *dist* change can perturb other cells (Route reads nothing
  // else); a next-only change re-routes this cell's own movers but
  // leaves every Route input, and hence the arming set, untouched.
  if (changed_out != nullptr && c.dist != r.dist) changed_out->push_back(k);
  c.dist = r.dist;
  c.next = r.next;
}

void System::run_signal_phase() {
  // Signal reads neighbors' fresh `next` (phase 1 output) and pre-Move
  // Members; it writes only its own ne_prev/token/signal — disjoint
  // struct fields, so concurrent cells never touch the same memory. A
  // stateful choose policy (RandomChoose) must observe the serial call
  // sequence, so it pins this phase to the in-order loop; the results
  // are identical either way for concurrent-safe (pure) policies.
  ThreadPool* pool = choose_->concurrent_safe() ? pool_.get() : nullptr;
  const auto nshards =
      pool ? static_cast<std::size_t>(pool->thread_count()) : 1;
  for (std::size_t s = 0; s < nshards; ++s)
    scratch_.shards[s].begin_phase();

  const std::size_t used =
      shard_count(cells_.size(), static_cast<int>(nshards));
  const bool pooled = pool != nullptr && used > 1;
  const bool shard_timing =
      profiler_ != nullptr || (telemetry_ != nullptr && pooled);
  const auto body = [&](std::size_t s, ShardRange r) {
    const auto t0 = shard_timing ? obs::PhaseProfiler::Clock::now()
                                 : obs::PhaseProfiler::Clock::time_point{};
    signal_span(s, r.begin, r.end);
    if (shard_timing) {
      const auto t1 = obs::PhaseProfiler::Clock::now();
      scratch_.shards[s].span_ns = span_ns(t0, t1);
      if (profiler_ != nullptr)
        profiler_->record("signal", round_, static_cast<int>(s), t0, t1);
    }
  };
  parallel_for_shards(pool, cells_.size(), body);
  note_phase_timing(1, pool, used);
  const bool merge_timing = telemetry_ != nullptr && pooled;
  const auto merge_t0 = merge_timing
                            ? obs::PhaseProfiler::Clock::now()
                            : obs::PhaseProfiler::Clock::time_point{};
  merge_shard_counts(nshards);
  merge_signal_results(nshards);
  if (merge_timing)
    round_timing_.merge_ns +=
        span_ns(merge_t0, obs::PhaseProfiler::Clock::now());
}

void System::signal_span(std::size_t s, std::size_t begin, std::size_t end) {
  ShardScratch& sc = scratch_.shards[s];
  obs::ProtocolCounts* pc = metrics_ ? &sc.counts : nullptr;
  if (scheduler_ != RoundScheduler::kActiveSet) {
    for (std::size_t k = begin; k < end; ++k) signal_cell(k, sc, pc, false);
    sc.visited_b += end - begin;
    return;
  }
  // The gates are frozen for the duration of the phase (changes buffer
  // per shard and apply at the barrier), so every engine takes identical
  // skip decisions. A cell with an all-unoccupied closed neighborhood
  // maps (⊥,⊥,[]) to (⊥,⊥,[]) without consulting choose_. An unarmed
  // cell has the inputs and token of its last run, which neither granted
  // nor called choose_ (a choice moves the token, and both re-arm), so
  // Figure 5 would recompute its stored output: skipping it is exact.
  // If that run blocked, it blocks again — replay the event in place, so
  // `blocked` keeps ascending order. The merge pays every skipped cell's
  // tallies in O(1). Under kCompacting Move rewrites Members of cells it
  // never reports, so every cell of an occupied neighborhood reruns.
  const bool coupled = config_.movement_rule == MovementRule::kCoupled;
  const auto gate = [this, coupled](std::size_t w) {
    return occ_nbhd_[w] & (coupled ? signal_armed_[w] | blocked_[w] : kAll);
  };
  for_each_set_bit(begin, end, gate, [&](std::size_t k) {
    if (!coupled || test_bit(signal_armed_, k)) {
      signal_cell(k, sc, pc, true);
      ++sc.visited_b;
    } else {
      sc.blocked.push_back(cell_id_[k]);
    }
  });
}

void System::merge_signal_results(std::size_t used) {
  // Shards cover ascending cell ranges, so concatenating in shard order reproduces the serial
  // loop's blocked-event order exactly.
  sched_stats_.signal_cells = 0;
  for (std::size_t s = 0; s < used; ++s) {
    const ShardScratch& sc = scratch_.shards[s];
    events_.blocked.insert(events_.blocked.end(), sc.blocked.begin(),
                           sc.blocked.end());
    sched_stats_.signal_cells += sc.visited_b;
  }
  if (scheduler_ != RoundScheduler::kActiveSet) return;

  // The replayed cells: blocked_ minus the ones that reran. They are
  // live (fail() forgets a blocked cell), and each owes its |NEPrev|
  // bucket and one block.
  NePrevHist replayed = blocked_hist_;
  std::uint64_t n_replayed = 0;
  for (std::size_t b = 0; b < replayed.size(); ++b) {
    for (std::size_t s = 0; s < used; ++s)
      replayed[b] -= scratch_.shards[s].reran_blocked[b];
    n_replayed += replayed[b];
    blocked_hist_[b] = replayed[b];
    for (std::size_t s = 0; s < used; ++s)
      blocked_hist_[b] += scratch_.shards[s].new_blocked[b];
  }
  if (metrics_) {
    // Every live cell tallies one |NEPrev| bucket in the exhaustive loop;
    // a skipped cell that was not replayed has an empty NEPrev (it is
    // unoccupied, or its last run saw no candidate), so its bucket is 0.
    std::uint64_t tallied = 0;
    for (std::size_t s = 0; s < used; ++s)
      for (const std::uint64_t b : scratch_.shards[s].counts.ne_prev_sizes)
        tallied += b;
    for (std::size_t b = 0; b < replayed.size(); ++b)
      round_counts_.ne_prev_sizes[b] += replayed[b];
    round_counts_.signal_blocks += n_replayed;
    round_counts_.ne_prev_sizes[0] += live_cells_ - tallied - n_replayed;
  }

  // The finished Signal consumed every armed bit; re-arm the cells that
  // granted or moved their token (their next run may differ even with
  // unchanged inputs) and schedule the movers they granted.
  const bool coupled = config_.movement_rule == MovementRule::kCoupled;
  std::fill(signal_armed_.begin(), signal_armed_.end(), 0);
  for (std::size_t s = 0; s < used; ++s) {
    const ShardScratch& sc = scratch_.shards[s];
    for (const std::size_t k : sc.rearm) {
      set_bit(signal_armed_, k);
      if (coupled) note_grant(k);
    }
    for (const std::size_t k : sc.blocked_flips) flip_bit(blocked_, k);
  }
  // Occupancy flips apply at the barrier, in shard order, so the Move
  // phase's activity reads see the post-Signal occupancy on every
  // engine (a fresh grant makes its destination occupied, which is what
  // schedules the granted mover under kCompacting).
  for (std::size_t s = 0; s < used; ++s)
    for (const std::size_t k : scratch_.shards[s].flips)
      apply_occupancy_flip(k);
}

void System::signal_cell(std::size_t k, ShardScratch& sc,
                         obs::ProtocolCounts* counts, bool active) {
  CellState& c = cells_[k];
  if (c.failed) {
    // Figure 5 does not run here, but Move still honors a signal that
    // corruption planted: keep such a cell armed, and its grant noted,
    // for as long as the signal stays.
    if (active && c.signal.has_value()) sc.rearm.push_back(k);
    return;
  }
  const CellId id = cell_id_[k];

  SignalInputs in;
  in.self = id;
  in.members = c.members;
  in.token = c.token;
  for (const std::uint32_t nk : nbr_idx_[k]) {
    if (nk == kNoNbr) continue;
    const CellState& nc = cells_[nk];
    if (nc.failed) continue;  // a failed cell never communicates
    if (nc.next == OptCellId{id} && nc.has_entities())
      in.ne_prev.push_back(cell_id_[nk]);
  }
  std::sort(in.ne_prev.begin(), in.ne_prev.end());

  const bool had_candidate = in.token.has_value() || !in.ne_prev.empty();
  const std::size_t ne_prev_size = in.ne_prev.size();
  const OptCellId old_token = c.token;
  SignalResult r =
      config_.signal_rule == SignalRule::kBlocking
          ? signal_step(std::move(in), config_.params, *choose_)
          : signal_step_always_grant(std::move(in), *choose_);
  const bool blocked = had_candidate && !r.signal.has_value();
  if (blocked) sc.blocked.push_back(id);
  if (counts != nullptr) {
    ++counts->ne_prev_sizes[ne_prev_bucket(ne_prev_size)];
    if (r.signal.has_value()) ++counts->signal_grants;
    if (blocked) ++counts->signal_blocks;
    if (old_token.has_value() && r.token != old_token)
      ++counts->signal_token_rotations;
  }
  if (active) {
    // A cell that granted or moved its token reruns next round. One that
    // blocked without moving its token (so it still holds one, and stays
    // in occ_nbhd_) joins blocked_ and is replayed until re-armed.
    const bool rearm = r.signal.has_value() || r.token != old_token;
    const bool frozen = blocked && !rearm;
    const bool was_frozen = test_bit(blocked_, k);
    if (was_frozen) ++sc.reran_blocked[ne_prev_bucket(c.ne_prev.size())];
    if (frozen) ++sc.new_blocked[ne_prev_bucket(ne_prev_size)];
    if (frozen != was_frozen) sc.blocked_flips.push_back(k);
    if (rearm) sc.rearm.push_back(k);
  }
  c.signal = r.signal;
  c.token = r.token;
  c.ne_prev = std::move(r.ne_prev);
  if (active && occupied(c) != (occ_b_[k] != 0)) sc.flips.push_back(k);
}

void System::run_move_phase() {
  // All cells decide and move simultaneously (Figure 6 guard:
  // signal_{next_{i,j}} = ⟨i,j⟩), so: first apply every cell's own
  // displacement and pull out the boundary-crossers, then deliver the
  // crossers. The decision step reads only the destination's signal
  // (frozen since phase 2) and mutates only the cell's own Members, so
  // it shards freely; delivery happens after the barrier, in canonical
  // order, because appends into a shared destination determine Members
  // order and hence downstream traces.
  ThreadPool* pool = pool_.get();
  const auto nshards =
      pool ? static_cast<std::size_t>(pool->thread_count()) : 1;
  for (std::size_t s = 0; s < nshards; ++s)
    scratch_.shards[s].begin_phase();

  const std::size_t used =
      shard_count(cells_.size(), static_cast<int>(nshards));
  const bool pooled = pool != nullptr && used > 1;
  const bool shard_timing =
      profiler_ != nullptr || (telemetry_ != nullptr && pooled);
  const auto body = [&](std::size_t s, ShardRange r) {
    const auto t0 = shard_timing ? obs::PhaseProfiler::Clock::now()
                                 : obs::PhaseProfiler::Clock::time_point{};
    move_span(s, r.begin, r.end);
    if (shard_timing) {
      const auto t1 = obs::PhaseProfiler::Clock::now();
      scratch_.shards[s].span_ns = span_ns(t0, t1);
      if (profiler_ != nullptr)
        profiler_->record("move", round_, static_cast<int>(s), t0, t1);
    }
  };
  parallel_for_shards(pool, cells_.size(), body);
  note_phase_timing(2, pool, used);

  const bool merge_timing =
      profiler_ != nullptr || (telemetry_ != nullptr && pooled);
  const auto merge_t0 = merge_timing ? obs::PhaseProfiler::Clock::now()
                                     : obs::PhaseProfiler::Clock::time_point{};
  merge_shard_counts(nshards);
  merge_move_results(nshards);
  if (merge_timing) {
    const auto merge_t1 = obs::PhaseProfiler::Clock::now();
    if (profiler_ != nullptr)
      profiler_->record("merge", round_, -1, merge_t0, merge_t1);
    if (telemetry_ != nullptr && pooled)
      round_timing_.merge_ns += span_ns(merge_t0, merge_t1);
  }
}

void System::move_span(std::size_t s, std::size_t begin, std::size_t end) {
  ShardScratch& sc = scratch_.shards[s];
  obs::ProtocolCounts* pc = metrics_ ? &sc.counts : nullptr;
  if (scheduler_ != RoundScheduler::kActiveSet) {
    for (std::size_t k = begin; k < end; ++k)
      move_cell(k, sc.moved, sc.pending, sc.crossed, pc);
    sc.visited += end - begin;
  } else {
    // Under kCoupled a cell moves only with its destination's grant, and
    // the Signal merge set grant_to_ for exactly those cells. Under
    // kCompacting every nonempty cell compacts; an unoccupied cell with
    // an unoccupied closed neighborhood cannot move — it has no members,
    // and a grant in its favor would make its destination (a lattice
    // neighbor, post-Route) occupied. occ_nbhd_ already reflects this
    // round's Signal output (flips merged at the barrier).
    const std::vector<std::uint64_t>& gate =
        config_.movement_rule == MovementRule::kCoupled ? grant_to_
                                                         : occ_nbhd_;
    for_each_set_bit(gate, begin, end, [&](std::size_t k) {
      move_cell(k, sc.moved, sc.pending, sc.crossed, pc);
      ++sc.visited;
    });
  }
}

void System::merge_move_results(std::size_t used) {
  sched_stats_.move_cells = 0;
  for (std::size_t s = 0; s < used; ++s) {
    const ShardScratch& sc = scratch_.shards[s];
    events_.moved.insert(events_.moved.end(), sc.moved.begin(),
                         sc.moved.end());
    sched_stats_.move_cells += sc.visited;
  }

  std::vector<PendingTransfer>& transfers = scratch_.transfers;
  transfers.clear();
  for (std::size_t s = 0; s < used; ++s) {
    std::vector<PendingTransfer>& p = scratch_.shards[s].pending;
    transfers.insert(transfers.end(), std::make_move_iterator(p.begin()),
                     std::make_move_iterator(p.end()));
  }
  // Already canonical by construction (ascending shards, in-order within
  // each); enforce it anyway so no engine can drift.
  canonical_transfer_order(grid_, transfers);

  // Membership only changes at cells that received a delivery (growth)
  // or applied a movement (shrink); both lists are in canonical order.
  const bool active = scheduler_ == RoundScheduler::kActiveSet;
  for (PendingTransfer& t : transfers) {
    TransferEvent ev{t.entity.id, t.from, t.to, /*consumed=*/false};
    if (t.to == config_.target) {
      ev.consumed = true;
      ++total_arrivals_;
      ++events_.arrivals;
      if (metrics_) ++round_counts_.consumptions;
      // Figure 6 line 11: the entity is not added to any cell — consumed.
    } else {
      const std::size_t to = grid_.index_of(t.to);
      const bool was_empty = cells_[to].members.empty();
      cells_[to].members.push_back(t.entity);
      if (active) note_members_change(to, was_empty);
    }
    events_.transfers.push_back(ev);
  }
  if (active) {
    // A mover only loses members. Taking each as nonempty before is
    // exact for every mover that had members and merely arms more for
    // one that had none (an empty cell can be granted).
    for (const CellId id : events_.moved)
      note_members_change(grid_.index_of(id), /*was_empty=*/false);
    std::fill(grant_to_.begin(), grant_to_.end(), 0);
  }
}

void System::move_cell(std::size_t k, std::vector<CellId>& moved_out,
                       std::vector<PendingTransfer>& pending_out,
                       std::vector<Entity>& crossed_scratch,
                       obs::ProtocolCounts* counts) {
  CellState& c = cells_[k];
  if (c.failed || !c.next.has_value()) return;
  const CellId id = grid_.id_of(k);
  const CellId dest = *c.next;
  const CellState& dc = cells_[grid_.index_of(dest)];
  const bool permitted = dc.signal == OptCellId{id};

  // The in-place steps partition c.members directly (stayers keep their
  // order, crossers land in the shard's crossing scratch) — no per-cell
  // staying/crossed vectors; see move.hpp.
  crossed_scratch.clear();
  if (config_.movement_rule == MovementRule::kCoupled) {
    if (!permitted) return;  // Figure 6: move only with permission
    moved_out.push_back(id);
    if (counts != nullptr) ++counts->moves;
    move_step_inplace(id, dest, c.members, crossed_scratch, config_.params);
  } else {
    // §V relaxed coupling: compact every round; cross only when
    // permitted; never compact into our own promised strip.
    if (c.members.empty()) return;
    if (permitted) {
      moved_out.push_back(id);
      if (counts != nullptr) ++counts->moves;
    }
    CompactionContext ctx;
    ctx.may_cross = permitted;
    if (c.signal.has_value())
      ctx.promised_strip = grid_.direction_between(id, *c.signal);
    compact_move_step_inplace(id, dest, c.members, crossed_scratch,
                              config_.params, ctx);
  }
  if (counts != nullptr) counts->transfers += crossed_scratch.size();
  for (Entity& e : crossed_scratch)
    pending_out.push_back(PendingTransfer{e, id, dest});
}

void System::run_inject_phase() {
  for (const CellId s : config_.sources) {
    CellState& c = cells_[grid_.index_of(s)];
    if (c.failed) continue;
    const auto center = source_->propose(grid_, config_.params, s, c);
    if (!center.has_value()) continue;
    if (!injection_is_safe(s, *center)) {
      if (metrics_) ++round_counts_.blocked_injections;
      continue;
    }
    const EntityId id{next_entity_id_++};
    const bool was_empty = c.members.empty();
    c.members.push_back(Entity{id, *center});
    note_members_change(grid_.index_of(s), was_empty);
    source_->note_accepted();
    events_.injected.emplace_back(s, id);
    if (metrics_) ++round_counts_.injections;
  }
}

bool System::injection_is_safe(CellId id, Vec2 center) const {
  const Params& p = config_.params;
  const double half = p.entity_length() / 2.0;
  const double d = p.center_spacing();
  const auto i = static_cast<double>(id.i);
  const auto j = static_cast<double>(id.j);

  // Invariant 1 bounds: the entity must lie wholly inside the cell.
  if (center.x - half < i || center.x + half > i + 1.0 ||
      center.y - half < j || center.y + half > j + 1.0)
    return false;

  // Gap requirement (Safe_{i,j}): spacing ≥ d along some axis vs. every
  // existing member.
  const CellState& c = cells_[grid_.index_of(id)];
  for (const Entity& q : c.members) {
    if (std::abs(center.x - q.center.x) < d &&
        std::abs(center.y - q.center.y) < d)
      return false;
  }

  // Fairness guard (assumption (b) of §III-B): never fill the entry strip
  // toward the neighbor currently being served, so injection cannot
  // perpetually re-block it. The strip predicate is a conjunction over
  // entities, so clear(members ∪ {new}) ≡ clear(members) ∧ clear({new})
  // — probing the new entity alone avoids materializing the union.
  if (c.token.has_value()) {
    const bool was_clear = entry_strip_clear(id, *c.token, c.members, p);
    if (was_clear) {
      const Entity probe{EntityId{~0ULL}, center};
      const bool probe_clear = entry_strip_clear(
          id, *c.token, std::span<const Entity>(&probe, 1), p);
      if (!probe_clear) return false;
    }
  }
  return true;
}

EntityId System::seed_entity(CellId id, Vec2 center) {
  CF_EXPECTS(grid_.contains(id));
  CF_EXPECTS_MSG(injection_is_safe(id, center),
                 "seed_entity: placement violates the gap requirement or "
                 "Invariant-1 bounds");
  const std::size_t k = grid_.index_of(id);
  const EntityId eid{next_entity_id_++};
  const bool was_empty = cells_[k].members.empty();
  cells_[k].members.push_back(Entity{eid, center});
  note_members_change(k, was_empty);
  return eid;
}

EntityId System::seed_entity_unchecked(CellId id, Vec2 center) {
  CF_EXPECTS(grid_.contains(id));
  const std::size_t k = grid_.index_of(id);
  const EntityId eid{next_entity_id_++};
  const bool was_empty = cells_[k].members.empty();
  cells_[k].members.push_back(Entity{eid, center});
  note_members_change(k, was_empty);
  return eid;
}

void System::corrupt_control_state(CellId id, Dist dist, OptCellId next,
                                   OptCellId token, OptCellId signal) {
  CF_EXPECTS(grid_.contains(id));
  forget_blocked(grid_.index_of(id));
  CellState& c = cells_[grid_.index_of(id)];
  c.dist = dist;
  c.next = next;
  c.token = token;
  c.signal = signal;
  note_control_mutation(grid_.index_of(id));
}

}  // namespace cellflow
