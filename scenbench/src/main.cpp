// scenbench — the scenario benchmark's runner. See scenbench/README.md.
//
//   scenbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--git-sha SHA]
//   scenbench --selftest
//   scenbench --list-metrics
//
// --trace 0 repeats untraced episodes of the workload's end-to-end
// configuration for about S seconds of timed rounds and reports the
// end-to-end metrics. --trace 1 cycles the workload's trace variants (the
// untraced configuration, its twins, the traced run) for the same time
// and reports the per-layer metrics. Either way the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; every
// episode is one attempted operation, failed if any check failed.
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "trace.hpp"

namespace scenbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "scenbench: " << why
            << "\nusage: scenbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--git-sha SHA]\n"
               "       scenbench --selftest | --list-metrics\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || *text == '-')
    usage("bad value for " + flag + ": " + text);
  return v;
}

std::string provenance_json(const Args& a) {
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"compiler\":\""
     << SCENBENCH_COMPILER << "\",\"build_type\":\"" << SCENBENCH_BUILD_TYPE
     << "\",\"release\":"
     << (std::strcmp(SCENBENCH_BUILD_TYPE, "Release") == 0 ? "true" : "false")
     << ",\"git_sha\":\"" << a.git_sha << "\"}";
  return os.str();
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const Workload* find_workload(const std::vector<Workload>& all,
                              const std::string& name) {
  for (const Workload& w : all) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Runs one episode, turning an escaped exception into a failed episode.
Episode attempt(const Workload& w, const EpisodeOptions& opt) {
  try {
    return w.run(opt);
  } catch (const std::exception& e) {
    Episode ep;
    ep.variant = opt.variant;
    ep.errors.push_back(std::string("exception: ") + e.what());
    return ep;
  }
}

/// Cross-episode checks: one digest per seed (traced, untraced and twins
/// alike) and identical exact work counts.
void cross_check(std::vector<Episode>& eps) {
  const Episode* ref = nullptr;
  for (Episode& e : eps) {
    if (!e.errors.empty()) continue;
    if (ref == nullptr) {
      ref = &e;
      continue;
    }
    if (e.digest != ref->digest) {
      e.errors.push_back(std::string("digest: ") + to_string(e.variant) +
                         " episode differs from " + to_string(ref->variant));
    }
  }
  const Episode* counted = nullptr;
  for (Episode& e : eps) {
    if (!e.errors.empty() || e.counts.empty()) continue;
    if (counted == nullptr) {
      counted = &e;
    } else if (e.counts != counted->counts) {
      e.errors.push_back(std::string("counts: ") + to_string(e.variant) +
                         " episode's work counts differ");
    }
  }
}

std::vector<Episode> run_episodes(const Workload& w, const Args& a,
                                  Tracer* tracer) {
  const std::vector<Variant> cycle =
      a.trace != 0 ? w.trace_variants : std::vector<Variant>{Variant::kPlain};
  // Three set-ups at least, so setup_s is a median; two trace cycles.
  const int min_cycles = a.trace != 0 ? 2 : 3;
  std::vector<Episode> eps;
  double spent = 0.0;
  double last = 0.0;  // timed seconds of the last cycle
  // Another cycle runs while it would end nearer to `seconds` than
  // stopping now, so a run times `seconds` on average.
  for (int c = 0; c < min_cycles || spent + last / 2 < a.seconds; ++c) {
    last = 0.0;
    for (const Variant v : cycle) {
      EpisodeOptions opt;
      opt.seed = a.seed;
      opt.variant = v;
      opt.tracer = v == Variant::kTraced ? tracer : nullptr;
      eps.push_back(attempt(w, opt));
      if (eps.back().wall_s <= 0.0) return eps;  // failed before timing
      last += eps.back().wall_s;
    }
    spent += last;
  }
  return eps;
}

/// The end-to-end metrics over the kPlain episodes. Every episode of a
/// run does the same work, so host interference (other tenants, a
/// preempted pool thread) can only slow an episode down: each timing is
/// its best episode's, the least disturbed measurement of that work.
/// Set-up time is the median over the episodes.
MetricSet end_to_end(const std::vector<Episode>& eps) {
  MetricSet m;
  std::vector<double> setup, rounds_per_s, deliveries_per_s, p50, cpu;
  for (const Episode& e : eps) {
    if (e.variant != Variant::kPlain) continue;
    const double rounds = static_cast<double>(e.rounds);
    setup.push_back(e.setup_s);
    rounds_per_s.push_back(rounds / e.wall_s);
    deliveries_per_s.push_back(static_cast<double>(e.deliveries) / e.wall_s);
    p50.push_back(median(e.round_us));
    cpu.push_back(e.cpu_s * 1e6 / rounds);
  }
  m["setup_s"] = median(setup);
  m["rounds_per_s"] = quantile(rounds_per_s, 1.0);
  m["deliveries_per_s"] = quantile(deliveries_per_s, 1.0);
  m["round_p50_us"] = quantile(p50, 0.0);
  m["cpu_us_per_round"] = quantile(cpu, 0.0);
  // The first episode's, taken before its checks: later episodes' marks
  // include the memory an earlier episode's checks allocated.
  for (const Episode& e : eps) {
    if (e.variant != Variant::kPlain) continue;
    m["peak_rss_mb"] = e.peak_rss_mb;
    break;
  }
  return m;
}

int run_benchmark(const Args& a) {
  const std::vector<Workload> all = all_workloads();
  const Workload* w = find_workload(all, a.workload);
  if (w == nullptr) usage("unknown workload '" + a.workload + "'");

  const std::string prov = provenance_json(a);
  std::cout << "provenance: " << prov << '\n';
  if (std::strcmp(SCENBENCH_BUILD_TYPE, "Release") != 0) {
    std::cout << "WARNING: " << SCENBENCH_BUILD_TYPE
              << " build; numbers are not comparable with Release results\n";
  }

  Tracer tracer(w->keep_every);
  std::vector<Episode> eps = run_episodes(*w, a, &tracer);
  cross_check(eps);

  std::uint64_t failed = 0;
  for (const Episode& e : eps) {
    std::printf("episode %-11s setup %8.4f s  timed %8.4f s  %8.1f rounds/s\n",
                to_string(e.variant), e.setup_s, e.wall_s,
                e.wall_s > 0.0 ? static_cast<double>(e.rounds) / e.wall_s : 0.0);
    if (e.errors.empty()) continue;
    ++failed;
    for (const std::string& err : e.errors)
      std::cout << "CHECK FAILED (" << to_string(e.variant) << "): " << err << '\n';
  }
  const bool correct = failed == 0;

  MetricSet values;
  const std::vector<MetricDef>* defs = &end_to_end_metrics();
  if (correct) {
    values = end_to_end(eps);
    if (a.trace != 0) {
      w->per_layer(eps, tracer, values);
      defs = &per_layer_metrics();
    }
  }
  if (a.trace != 0 && !a.trace_out.empty()) {
    std::ostringstream other;
    other << "{\"workload\":\"" << w->name << "\",\"seed\":" << a.seed
          << ",\"provenance\":" << prov << '}';
    tracer.write_chrome(a.trace_out, other.str());
    std::cout << "trace: " << a.trace_out << '\n';
  }

  std::cout << w->name << " seed=" << a.seed << " episodes=" << eps.size()
            << " trace=" << a.trace << '\n';
  std::ostringstream json;
  json << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << eps.size() << ",\"failed\":" << failed
       << ",\"metrics\":{";
  bool first = true;
  for (const MetricDef& d : *defs) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("  %-34s %14.4f %s\n", d.name, v, d.unit);
    json << (first ? "" : ",") << '"' << d.name << "\":{\"value\":" << number(v)
         << ",\"unit\":\"" << d.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::fflush(stdout);
  std::cout << json.str() << std::endl;
  return 0;
}

/// Short-length lengths for the self-test (one jam cycle for
/// sparse_field; K for each paper_figs point).
std::uint64_t selftest_rounds(const std::string& name) {
  if (name == "paper_figs") return 300;
  if (name == "sparse_field") return 250;
  if (name == "dense_crowd") return 20;
  if (name == "chunked_conveyor") return 160;
  return 200;
}

/// Each workload twice (every trace variant, so traced and untraced
/// twins too) at a short length: no check may fail, one digest and one
/// set of work counts per seed, and another seed a different digest.
int selftest() {
  bool ok = true;
  for (const Workload& w : all_workloads()) {
    const std::uint64_t rounds = selftest_rounds(w.name);
    Tracer tracer(w.keep_every);
    std::vector<Episode> eps;
    for (int pass = 0; pass < 2; ++pass) {
      for (const Variant v : w.trace_variants) {
        eps.push_back(attempt(
            w, {1, v, v == Variant::kTraced ? &tracer : nullptr, rounds}));
      }
    }
    cross_check(eps);
    std::vector<std::string> errors;
    for (const Episode& e : eps) errors.insert(errors.end(), e.errors.begin(), e.errors.end());
    const Episode other = attempt(w, {2, Variant::kPlain, nullptr, rounds});
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
    if (other.digest == eps.front().digest) errors.emplace_back("seed 2 gives seed 1's digest");
    bool has_counts = false;
    for (const Episode& e : eps) has_counts = has_counts || !e.counts.empty();
    if (!has_counts) errors.emplace_back("no work counts recorded");
    std::cout << (errors.empty() ? "PASS " : "FAIL ") << w.name << " ("
              << eps.size() + 1 << " episodes, digest " << std::hex
              << eps.front().digest << std::dec << ")\n";
    for (const std::string& e : errors) std::cout << "  " << e << '\n';
    ok = ok && errors.empty();
  }
  return ok ? 0 : 1;
}

int list_metrics() {
  const auto dump = [](const std::vector<MetricDef>& defs) {
    std::string s = "[";
    for (const MetricDef& d : defs) {
      s += std::string(s.size() > 1 ? "," : "") + "[\"" + d.name + "\",\"" +
           d.unit + "\"]";
    }
    return s + "]";
  };
  std::string names = "[";
  for (const Workload& w : all_workloads())
    names += std::string(names.size() > 1 ? "," : "") + '"' + w.name + '"';
  std::cout << "{\"workloads\":" << names << "],\"end_to_end\":"
            << dump(end_to_end_metrics())
            << ",\"per_layer\":" << dump(per_layer_metrics()) << "}\n";
  return 0;
}

}  // namespace
}  // namespace scenbench

int main(int argc, char** argv) {
  using namespace scenbench;
  Args a;
  bool have_workload = false;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (flag == "--selftest") return selftest();
    if (flag == "--list-metrics") return list_metrics();
    if (k + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++k];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, value);
      if (t > 1) usage("--trace must be 0 or 1");
      a.trace = static_cast<int>(t);
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return run_benchmark(a);
}
