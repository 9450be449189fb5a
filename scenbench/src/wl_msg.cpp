// lossy_msg: the message-passing realization over an unreliable network —
// the only workload that runs `msg` and `net`. MessageSystem side 16,
// four evenly spaced west-edge sources, FaultyNetwork dropping 20% of all
// messages for the whole run, serial: five exchanges per round, canonical
// delivery sort, stop-and-wait retransmission of the data plane.
//
// The traced run attaches the realization's own PhaseProfiler (per-
// exchange spans) and re-parents its spans under the benchmark's
// "msg.update" span each round.
#include <iterator>
#include <memory>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "msg/msg_audit.hpp"
#include "msg/msg_system.hpp"
#include "net/faulty_network.hpp"
#include "obs/profiler.hpp"
#include "snapshot/snapshot.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace scenbench {

using namespace cellflow;

namespace {

constexpr int kSide = 16;
constexpr int kSources = 4;
constexpr double kDrop = 0.2;
constexpr std::uint64_t kRounds = 5000;
constexpr std::uint64_t kMaxWarmUp = 5000;
constexpr const char* kExchanges[] = {"dist", "intent", "grant",
                                      "transfer", "ack", "inject"};
constexpr const char* kExchangeSpans[] = {"msg.dist", "msg.intent", "msg.grant",
                                          "msg.transfer", "msg.ack", "msg.inject"};

Episode run_lossy_msg(const EpisodeOptions& opt) {
  Episode ep;
  ep.variant = opt.variant;
  const std::uint64_t rounds = opt.rounds != 0 ? opt.rounds : kRounds;
  const auto s0 = Clock::now();

  // West-edge sources evenly spaced, the same for every seed: with a
  // seeded offset the rows nearest the target, and so the work per round
  // and the rounds to the first arrival, would vary by seed. The seed
  // drives the drop stream.
  MsgSystemConfig cfg;
  cfg.side = kSide;
  cfg.params = Params(0.25, 0.05, 0.2);
  cfg.target = CellId{kSide - 1, kSide / 2};
  cfg.sources.clear();
  const int spacing = kSide / kSources;
  for (int k = 0; k < kSources; ++k)
    cfg.sources.push_back(CellId{0, spacing / 2 + k * spacing});
  NetFaultSpec faults;
  faults.drop_prob = kDrop;
  MessageSystem msg(
      cfg, std::make_unique<FaultyNetwork>(faults, SplitMix64(opt.seed).next()));
  while (msg.total_arrivals() == 0 && msg.round() < kMaxWarmUp) msg.update();
  if (msg.total_arrivals() == 0) ep.errors.push_back("flow never arrived");
  ep.setup_s = seconds_between(s0, Clock::now());

  obs::PhaseProfiler profiler;
  Tracer* tr = opt.tracer;
  if (tr != nullptr) msg.set_profiler(&profiler);
  const NetworkModel& net = msg.network();
  const std::uint64_t msgs0 = msg.total_messages();
  const std::uint64_t dropped0 = net.fault_count(NetFault::kDropped);
  const std::uint64_t deferred0 = msg.deferred_acceptances();
  const std::uint64_t arrivals0 = msg.total_arrivals();
  if (tr == nullptr) ep.round_us.reserve(rounds);

  const double cpu0 = process_cpu_seconds();
  const auto w0 = Clock::now();
  for (std::uint64_t k = 0; k < rounds; ++k) {
    if (tr != nullptr) tr->begin_round(msg.round());
    const auto u0 = Clock::now();
    msg.update();
    const auto u1 = Clock::now();
    if (tr != nullptr) {
      tr->open("msg.update", u0);
      for (const obs::PhaseProfiler::Span& s : profiler.spans()) {
        for (std::size_t x = 0; x < std::size(kExchanges); ++x) {
          if (std::string_view(s.name) != kExchanges[x]) continue;
          const auto t0 = profiler.epoch() + std::chrono::nanoseconds(s.start_ns);
          tr->leaf(kExchangeSpans[x], t0, t0 + std::chrono::nanoseconds(s.duration_ns));
        }
      }
      profiler.clear();
      tr->close(u1);
    } else {
      ep.round_us.push_back(seconds_between(u0, u1) * 1e6);
    }
  }
  ep.wall_s = seconds_between(w0, Clock::now());
  ep.cpu_s = process_cpu_seconds() - cpu0;
  ep.peak_rss_mb = peak_rss_mb();
  ep.rounds = rounds;
  ep.deliveries = msg.total_arrivals() - arrivals0;
  ep.counts = {
      {"net.messages", static_cast<double>(msg.total_messages() - msgs0)},
      {"net.dropped", static_cast<double>(net.fault_count(NetFault::kDropped) - dropped0)},
      {"msg.deferred", static_cast<double>(msg.deferred_acceptances() - deferred0)},
      {"msg.arrivals", static_cast<double>(ep.deliveries)}};
  msg.set_profiler(nullptr);

  for (const Violation& v : msg_audit::check_all(msg)) {
    ep.errors.push_back("oracle: " + to_string(v));
  }
  if (msg.total_injected() !=
      msg.total_arrivals() + msg.entity_count() + msg.in_flight_entities().size())
    ep.errors.push_back("ledger: injected != arrivals + resident + in flight");
  ep.digest = snapshot::state_digest(msg);
  return ep;
}

void lossy_msg_layers(const std::vector<Episode>& eps, const Tracer& tr,
                      MetricSet& out) {
  common_per_layer(eps, out);
  const Episode& e = eps.front();
  const double r = static_cast<double>(e.rounds);
  const double traced_rounds = static_cast<double>(tr.rounds());
  for (std::size_t x = 0; x < std::size(kExchanges); ++x) {
    out[std::string("msg.") + kExchanges[x] + "_us_per_round"] =
        static_cast<double>(tr.totals(kExchangeSpans[x]).total_ns) / 1e3 /
        traced_rounds;
  }
  const double messages = e.counts.at("net.messages");
  const double arrivals = e.counts.at("msg.arrivals");
  out["net.messages_per_round"] = messages / r;
  out["net.dropped_per_round"] = e.counts.at("net.dropped") / r;
  out["msg.deferred_per_round"] = e.counts.at("msg.deferred") / r;
  out["msg.messages_per_delivery"] = arrivals > 0.0 ? messages / arrivals : 0.0;
  out["net.ns_per_message"] =
      static_cast<double>(tr.totals("msg.update").total_ns) / traced_rounds /
      (messages / r);
}

}  // namespace

Workload lossy_msg_workload() {
  return {"lossy_msg", {Variant::kPlain, Variant::kTraced}, 1, run_lossy_msg,
          lossy_msg_layers};
}

}  // namespace scenbench
