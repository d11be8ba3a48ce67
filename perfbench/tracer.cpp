#include "tracer.h"

#include <fstream>
#include <stdexcept>

#include "util/json.h"

namespace perfbench {

int Tracer::begin(const char* name, std::uint64_t req) {
  Span s;
  s.name = name;
  s.req = req;
  s.parent = open_.empty() ? -1 : open_.back();
  s.t0 = Clock::now();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int id) noexcept {
  spans_[static_cast<std::size_t>(id)].t1 = Clock::now();
  open_.pop_back();
}

void Tracer::add(const char* name, std::uint64_t req, int tid,
                 Clock::time_point t0, Clock::time_point t1) {
  Span s;
  s.name = name;
  s.req = req;
  s.tid = tid;
  s.t0 = t0;
  s.t1 = t1;
  spans_.push_back(s);
}

std::map<std::string, std::vector<double>> Tracer::self_us() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += us(s);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name].push_back(us(spans_[i]) - child[i]);
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_[0].t0;
  sqz::util::JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.member("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.member("name", s.name);
    w.member("cat", "perfbench");
    w.member("ph", "X");
    w.member("pid", 1);
    w.member("tid", s.tid);
    w.member("ts", std::chrono::duration<double, std::micro>(s.t0 - origin).count());
    w.member("dur", us(s));
    w.key("args");
    w.begin_object();
    w.member("req", static_cast<std::int64_t>(s.req));
    w.member("span", i);
    w.member("parent", s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
