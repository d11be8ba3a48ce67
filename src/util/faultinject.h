// Deterministic fault injection for I/O seams.
//
// Production code routes risky operations (socket reads, cache-file writes,
// accept loops) through named *fault points*. When nothing is armed — the
// normal case — a fault point costs one relaxed atomic load. Tests (or an
// operator, via the SQZ_FAULT environment variable) arm a site with an
// action and a shot count, and the next N visits to that site observe the
// injected failure: an errno, a truncated transfer, or a stall. Because the
// registry is explicit and counted, chaos tests are deterministic: the same
// arming always fails the same operations the same number of times.
//
//   util::fault::arm("simcache.write", util::fault::make_errno(ENOSPC), 3);
//   ... the next three disk_put calls behave as if the disk were full ...
//
// Sites are ad-hoc strings named at the call site. The membership drills
// (serve/workerpool.h, serve/coordinator.h) add "coord.register" (refuse a
// worker registration) and "coord.lease" (force-expire one lease)
// alongside the older serve/coordinator sites ("coord.health",
// "coord.dispatch", "coord.steal") and the I/O sites ("serve.accept",
// "serve.recv", "serve.send", "simcache.*", "sweepjournal.append",
// "dse.point").
//
// Env spec (parsed once at process start):
//   SQZ_FAULT="site=kind[:arg][*times][;site=...]"
//   kinds: errno:<ENOSPC|EMFILE|ENFILE|EIO|integer>, short:<bytes>,
//          stall:<millis>. `*times` defaults to 1.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace sqz::util::fault {

enum class Kind {
  None,     ///< Site not armed (or shots exhausted): proceed normally.
  Errno,    ///< Fail the operation with `err` (the syscall is not made).
  ShortIo,  ///< Cap the transfer at `bytes` (short read / partial write).
  Stall,    ///< Sleep `millis` before proceeding normally.
};

struct Action {
  Kind kind = Kind::None;
  int err = 0;            ///< Errno to report (Kind::Errno).
  std::size_t bytes = 0;  ///< Transfer cap (Kind::ShortIo).
  int millis = 0;         ///< Stall duration (Kind::Stall).

  explicit operator bool() const { return kind != Kind::None; }
};

inline Action make_errno(int err) { return Action{Kind::Errno, err, 0, 0}; }
inline Action make_short(std::size_t bytes) {
  return Action{Kind::ShortIo, 0, bytes, 0};
}
inline Action make_stall(int millis) {
  return Action{Kind::Stall, 0, 0, millis};
}

namespace detail {
extern std::atomic<int> g_armed_sites;  ///< Registry size; 0 = all disarmed.
}

/// True when at least one site is armed. This is the only cost a fault
/// point pays in production: one relaxed atomic load and a branch.
inline bool enabled() noexcept {
  return detail::g_armed_sites.load(std::memory_order_relaxed) != 0;
}

/// Consult the registry for `site`. When the site is armed with shots
/// remaining, consumes one shot, bumps the site's hit counter, and returns
/// the action (a Stall action sleeps *inside* this call, so callers only
/// need to handle Errno and ShortIo). Otherwise returns Kind::None.
Action consume(const char* site) noexcept;

/// Shorthand used at call sites: registry consult gated on enabled().
inline Action at(const char* site) noexcept {
  return enabled() ? consume(site) : Action{};
}

/// Arm `site` to fire `times` times (replacing any previous arming).
void arm(const std::string& site, Action action, int times = 1);

/// Disarm one site / every site. reset() also clears hit counters.
void disarm(const std::string& site);
void reset();

/// Times `site` actually fired since it was last armed via arm()/spec.
std::uint64_t hits(const std::string& site);

/// Shots left on `site`; 0 when disarmed or exhausted.
int remaining(const std::string& site);

/// Parse and apply an SQZ_FAULT-style spec. On a malformed spec nothing is
/// armed, `error` (if non-null) explains why, and false is returned.
bool arm_from_spec(const std::string& spec, std::string* error = nullptr);

}  // namespace sqz::util::fault
