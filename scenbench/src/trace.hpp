// In-memory span tracer for the traced runs.
//
// Spans are recorded by the benchmark's own code around each call into a
// layer (and, for System, at the PhaseHook points between phases); the
// library is never instrumented beyond its public attach points. Each span
// carries a name, start, end and parent. Exact per-name totals (duration
// and self time = duration minus the time covered by child spans) are
// kept for every round; the spans themselves are retained only for one
// round in `keep_every`, so multi-million-round runs stay small. The
// retained spans are written once, at exit, as Chrome trace_event JSON
// (obs::to_chrome_trace has no parent link, so the writer is local).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"

namespace scenbench {

class Tracer {
 public:
  struct Totals {
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  explicit Tracer(std::uint64_t keep_every) : keep_every_(keep_every) {}

  /// Starts round `round` of the current episode; decides whether its
  /// spans are retained. All spans of the previous round must be closed.
  void begin_round(std::uint64_t round);

  /// Opens a span as a child of the innermost open span. `name` must be
  /// a string literal (stored by pointer).
  void open(const char* name, Clock::time_point t);
  /// Closes the innermost open span at `t`.
  void close(Clock::time_point t);
  /// Records an already-finished leaf span under the innermost open span.
  void leaf(const char* name, Clock::time_point t0, Clock::time_point t1);

  /// Labels every span retained from now on (e.g. "barriered").
  void set_label(const char* label) { label_ = label; }

  [[nodiscard]] Totals totals(std::string_view name) const;
  /// Rounds begun since construction (every round, retained or not).
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }

  /// Writes the retained spans as Chrome trace_event JSON; `other` is a
  /// JSON object embedded verbatim as "otherData".
  void write_chrome(const std::string& path, const std::string& other) const;

 private:
  struct Span {
    const char* name;
    const char* label;
    std::uint64_t round;
    std::int64_t parent;  // index into spans_, -1 for a root
    Clock::time_point start;
    Clock::time_point end;
  };
  struct Open {
    const char* name;
    Clock::time_point start;
    std::uint64_t child_ns;
    std::int64_t kept;  // index into spans_ when retained, else -1
  };
  Totals& slot(const char* name);
  void finish(const char* name, Clock::time_point t0, Clock::time_point t1,
              std::uint64_t child_ns, std::int64_t kept);

  std::uint64_t keep_every_;
  std::uint64_t rounds_ = 0;
  std::uint64_t round_ = 0;
  bool keep_ = false;
  const char* label_ = "";
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::vector<std::pair<const char*, Totals>> totals_;
};

}  // namespace scenbench
