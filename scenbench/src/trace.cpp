#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace scenbench {

namespace {

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return b > a ? static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                         .count())
               : 0;
}

}  // namespace

void Tracer::begin_round(std::uint64_t round) {
  if (!stack_.empty()) throw std::logic_error("tracer: span left open");
  round_ = round;
  keep_ = keep_every_ != 0 && rounds_ % keep_every_ == 0;
  ++rounds_;
}

void Tracer::open(const char* name, Clock::time_point t) {
  std::int64_t kept = -1;
  if (keep_) {
    kept = static_cast<std::int64_t>(spans_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().kept;
    spans_.push_back(Span{name, label_, round_, parent, t, t});
  }
  stack_.push_back(Open{name, t, 0, kept});
}

void Tracer::close(Clock::time_point t) {
  if (stack_.empty()) throw std::logic_error("tracer: close without open");
  const Open o = stack_.back();
  stack_.pop_back();
  finish(o.name, o.start, t, o.child_ns, o.kept);
}

void Tracer::leaf(const char* name, Clock::time_point t0,
                  Clock::time_point t1) {
  std::int64_t kept = -1;
  if (keep_) {
    kept = static_cast<std::int64_t>(spans_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().kept;
    spans_.push_back(Span{name, label_, round_, parent, t0, t1});
  }
  finish(name, t0, t1, 0, kept);
}

void Tracer::finish(const char* name, Clock::time_point t0,
                    Clock::time_point t1, std::uint64_t child_ns,
                    std::int64_t kept) {
  const std::uint64_t dur = ns_between(t0, t1);
  Totals& tot = slot(name);
  tot.total_ns += dur;
  tot.self_ns += dur > child_ns ? dur - child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (kept >= 0) spans_[static_cast<std::size_t>(kept)].end = t1;
}

Tracer::Totals& Tracer::slot(const char* name) {
  for (auto& [n, t] : totals_) {
    if (n == name) return t;
  }
  // The same name may reach here through another literal's address.
  for (auto& [n, t] : totals_) {
    if (std::string_view(n) == name) return t;
  }
  totals_.emplace_back(name, Totals{});
  return totals_.back().second;
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  for (const auto& [n, t] : totals_) {
    if (name == n) return t;
  }
  return {};
}

void Tracer::write_chrome(const std::string& path,
                          const std::string& other) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const Clock::time_point epoch =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  out << "{\"traceEvents\":[";
  char buf[128];
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    const double ts = static_cast<double>(ns_between(epoch, s.start)) / 1e3;
    const double dur = static_cast<double>(ns_between(s.start, s.end)) / 1e3;
    out << (k == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,";
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,", ts, dur);
    out << buf << "\"args\":{\"id\":" << k << ",\"parent\":" << s.parent
        << ",\"round\":" << s.round;
    if (*s.label != '\0') out << ",\"engine\":\"" << s.label << '"';
    out << "}}";
  }
  out << "\n],\"otherData\":" << other << "}\n";
}

}  // namespace scenbench
