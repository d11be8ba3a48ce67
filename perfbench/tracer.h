// In-memory span recorder for the traced run.
//
// A span is a name, a start, an end, the span that caused it, and the id of
// the request it belongs to. Spans stay in memory until the run ends, when
// they are reduced to per-name self times (duration minus the time the
// span's children cover) and written as a Chrome trace — the format
// `sqzsim --trace` produces, so Perfetto opens both.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name = "";
    std::uint64_t req = 0;
    int parent = -1;  ///< Index into spans(), -1 for a root.
    int tid = 0;      ///< Chrome-trace track.
    Clock::time_point t0, t1;
  };

  /// Open a span under the innermost open one (on track 0). Spans close
  /// in reverse order of opening (Scope guarantees it).
  int begin(const char* name, std::uint64_t req);
  void end(int id) noexcept;
  /// Record an interval measured elsewhere (another thread) as a root span
  /// on its own track.
  void add(const char* name, std::uint64_t req, int tid, Clock::time_point t0,
           Clock::time_point t1);

  const std::vector<Span>& spans() const { return spans_; }
  static double us(const Span& s) {
    return std::chrono::duration<double, std::micro>(s.t1 - s.t0).count();
  }

  /// Self time of every span, in microseconds, grouped by name.
  std::map<std::string, std::vector<double>> self_us() const;

  /// Write every span as a Chrome-trace "X" event (microsecond timestamps
  /// from the first span), with its request id and parent in "args".
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing (the untraced path).
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint64_t req)
      : t_(t), id_(t ? t->begin(name, req) : -1) {}
  ~Scope() {
    if (t_) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
