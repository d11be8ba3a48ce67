// The coordinator's worker registry (serve/workerpool.h): the pure health
// state machine, table-driven over the full transition graph — time is a
// parameter, so probation windows are tested without waiting them out —
// the consistent-hash ring's routing invariants, and the dynamic-membership
// lease lifecycle (register/renew/expire/rejoin with epoch versioning).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/workerpool.h"
#include "util/faultinject.h"
#include "util/hash.h"

namespace sqz::serve {
namespace {

ProbePolicy test_policy() {
  ProbePolicy p;
  p.fail_threshold = 3;
  p.probation_ms = 1000;
  return p;
}

// --- the state machine, table-driven --------------------------------------

// One scripted event against the machine: feed a probe/dispatch outcome, or
// ask whether a probe is due (which is also the Ejected -> Probation edge).
struct Event {
  enum class Kind { Result, Due } kind;
  bool value;           // Result: the outcome. Due: the expected answer.
  std::int64_t now_ms;
  WorkerHealth expect;  // Health after the event.
};

Event result(bool ok, std::int64_t now_ms, WorkerHealth expect) {
  return {Event::Kind::Result, ok, now_ms, expect};
}
Event due(bool expect_due, std::int64_t now_ms, WorkerHealth expect) {
  return {Event::Kind::Due, expect_due, now_ms, expect};
}

struct Scenario {
  const char* name;
  std::vector<Event> events;
};

TEST(WorkerStateMachine, TransitionGraph) {
  const WorkerHealth H = WorkerHealth::Healthy;
  const WorkerHealth S = WorkerHealth::Suspect;
  const WorkerHealth E = WorkerHealth::Ejected;
  const WorkerHealth P = WorkerHealth::Probation;
  const std::vector<Scenario> scenarios = {
      {"healthy stays healthy on success",
       {result(true, 0, H), result(true, 10, H), result(true, 20, H)}},
      {"one failure makes a suspect, not a corpse",
       {result(false, 0, S), due(true, 10, S)}},
      {"a suspect recovers on the next success",
       {result(false, 0, S), result(true, 10, H)}},
      {"failures below the threshold never eject",
       {result(false, 0, S), result(false, 10, S), result(true, 20, H),
        result(false, 30, S), result(false, 40, S), result(true, 50, H)}},
      {"threshold consecutive failures eject",
       {result(false, 0, S), result(false, 10, S), result(false, 20, E)}},
      {"ejected workers are not probed inside the probation window",
       {result(false, 0, S), result(false, 10, S), result(false, 20, E),
        due(false, 500, E), due(false, 1019, E)}},
      {"the probation window elapsing grants a single trial",
       {result(false, 0, S), result(false, 10, S), result(false, 20, E),
        due(true, 1020, P)}},
      {"a passed trial readmits",
       {result(false, 0, S), result(false, 10, S), result(false, 20, E),
        due(true, 1020, P), result(true, 1030, H)}},
      {"a failed trial re-ejects and restarts the timer",
       {result(false, 0, S), result(false, 10, S), result(false, 20, E),
        due(true, 1020, P), result(false, 1030, E),
        due(false, 1040, E),          // old window origin would say due
        due(true, 2031, P)}},         // the restarted one eventually does
      {"a success observed while ejected readmits (straggling dispatch)",
       {result(false, 0, S), result(false, 10, S), result(false, 20, E),
        result(true, 100, H)}},
      {"readmission resets the failure count",
       {result(false, 0, S), result(false, 10, S), result(true, 20, H),
        result(false, 30, S), result(false, 40, S), result(false, 50, E)}},
  };

  for (const Scenario& sc : scenarios) {
    WorkerStateMachine m(test_policy());
    for (std::size_t i = 0; i < sc.events.size(); ++i) {
      const Event& e = sc.events[i];
      if (e.kind == Event::Kind::Result) {
        m.on_result(e.value, e.now_ms);
      } else {
        EXPECT_EQ(m.probe_due(e.now_ms), e.value)
            << sc.name << ", event " << i;
      }
      EXPECT_EQ(m.health(), e.expect) << sc.name << ", event " << i;
    }
  }
}

TEST(WorkerStateMachine, UsableMeansHealthyOrSuspect) {
  WorkerStateMachine m(test_policy());
  EXPECT_TRUE(m.usable());
  m.on_result(false, 0);
  EXPECT_TRUE(m.usable());  // Suspect still takes chunks
  m.on_result(false, 10);
  m.on_result(false, 20);
  EXPECT_FALSE(m.usable());  // Ejected
  m.probe_due(2000);
  EXPECT_EQ(m.health(), WorkerHealth::Probation);
  EXPECT_FALSE(m.usable());  // Probation waits for its trial
  m.on_result(true, 2010);
  EXPECT_TRUE(m.usable());
}

TEST(WorkerStateMachine, EjectionTransitionFiresOnce) {
  WorkerStateMachine m(test_policy());
  m.on_result(false, 0);
  m.on_result(false, 10);
  EXPECT_TRUE(m.on_result(false, 20).ejected);
  // Further failures while already ejected are not "new" ejections.
  EXPECT_FALSE(m.on_result(false, 30).ejected);
}

// --- the consistent-hash ring ----------------------------------------------

// Distinct loopback addresses for ring and membership tests. Ports come from
// the kernel's ephemeral range (bind port 0, learn the number, release) —
// never hard-coded — so a parallel ctest shard that *does* bind sockets can
// never race these suites into EADDRINUSE, and an accidentally started
// prober can never probe some unrelated service squatting on a fixed port.
// The fds are held until all are allocated so the ports are distinct.
std::vector<HostPort> fleet(int n) {
  std::vector<int> fds;
  std::vector<HostPort> out;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    out.push_back({"127.0.0.1", ntohs(addr.sin_port)});
    fds.push_back(fd);
  }
  for (const int fd : fds) ::close(fd);
  return out;
}

TEST(WorkerPoolRing, RoutingIsDeterministic) {
  WorkerPool pool(fleet(3), test_policy());
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t h = util::fnv1a64("point-" + std::to_string(i));
    const int w = pool.route(h);
    ASSERT_GE(w, 0);
    ASSERT_LT(w, 3);
    EXPECT_EQ(pool.route(h), w);  // same hash, same worker, every time
  }
}

TEST(WorkerPoolRing, EveryWorkerOwnsSomeArc) {
  WorkerPool pool(fleet(3), test_policy());
  std::map<int, int> hits;
  for (int i = 0; i < 4096; ++i)
    ++hits[pool.route(util::fnv1a64("key-" + std::to_string(i)))];
  EXPECT_EQ(hits.size(), 3u) << "64 vnodes each should spread 4096 keys";
}

TEST(WorkerPoolRing, ExclusionPicksADifferentWorker) {
  WorkerPool pool(fleet(3), test_policy());
  const std::uint64_t h = util::fnv1a64("some chunk");
  const int first = pool.route(h);
  const int second = pool.route(h, {first});
  ASSERT_GE(second, 0);
  EXPECT_NE(second, first);
  const int third = pool.route(h, {first, second});
  ASSERT_GE(third, 0);
  EXPECT_NE(third, first);
  EXPECT_NE(third, second);
  EXPECT_EQ(pool.route(h, {first, second, third}), -1);
}

TEST(WorkerPoolRing, EjectionRedistributesOnlyTheDeadWorkersArcs) {
  WorkerPool pool(fleet(3), test_policy());
  std::map<std::uint64_t, int> before;
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t h = util::fnv1a64("stable-" + std::to_string(i));
    before[h] = pool.route(h);
  }
  // Eject worker 0 through dispatch reports — the same signal a failed
  // chunk POST feeds.
  pool.report(0, false);
  pool.report(0, false);
  pool.report(0, false);
  EXPECT_EQ(pool.health(0), WorkerHealth::Ejected);
  EXPECT_EQ(pool.usable_count(), 2u);
  for (const auto& [h, w] : before) {
    const int now = pool.route(h);
    ASSERT_GE(now, 0);
    if (w != 0)
      EXPECT_EQ(now, w) << "a survivor's shard must not move";
    else
      EXPECT_NE(now, 0) << "the dead worker's arcs must move";
  }
}

TEST(WorkerPoolRing, AllEjectedRoutesNowhere) {
  WorkerPool pool(fleet(2), test_policy());
  for (int w = 0; w < 2; ++w)
    for (int i = 0; i < 3; ++i) pool.report(static_cast<std::size_t>(w), false);
  EXPECT_EQ(pool.usable_count(), 0u);
  EXPECT_EQ(pool.route(util::fnv1a64("anything")), -1);
  // A straggling in-flight success readmits its worker and routing resumes.
  pool.report(1, true);
  EXPECT_EQ(pool.route(util::fnv1a64("anything")), 1);
}

// How many of 512 fixed keys route to `worker`.
int keys_routed_to(const WorkerPool& pool, int worker) {
  int hits = 0;
  for (int i = 0; i < 512; ++i)
    hits += pool.route(util::fnv1a64("join-" + std::to_string(i))) == worker;
  return hits;
}

TEST(WorkerPoolRing, AdjacentPortsSplitTheKeysEvenly) {
  // Raw FNV-1a ring positions cluster for names that differ only in their
  // last bytes: 127.0.0.1:40005 + :40006 once routed all 512 keys to the
  // first. Nothing dials these addresses (no prober is started), so fixed
  // port numbers are safe here.
  for (const int base : {40005, 9000, 32768, 50999, 60000}) {
    WorkerPool pool({{"127.0.0.1", base}, {"127.0.0.1", base + 1}},
                    test_policy());
    const int second = keys_routed_to(pool, 1);
    EXPECT_GE(second, 128) << base;
    EXPECT_LE(second, 384) << base;
  }
}

// --- dynamic membership & leases --------------------------------------------

TEST(WorkerPoolMembership, RegistrationAddsRoutableMemberAndBumpsEpoch) {
  // Fixed adjacent ports (never dialed): the pair whose clustered ring once
  // left the registrant without a single key.
  const std::vector<HostPort> addrs = {{"127.0.0.1", 40005},
                                       {"127.0.0.1", 40006}};
  WorkerPool pool({addrs[0]}, test_policy());
  EXPECT_EQ(pool.epoch(), 1u);
  EXPECT_EQ(pool.member_count(), 1u);

  const WorkerPool::Registration r =
      pool.register_worker(addrs[1], /*lease_ms=*/5000, /*now_ms=*/0);
  EXPECT_TRUE(r.newly_added);
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_EQ(r.lease_ms, 5000);
  EXPECT_EQ(pool.epoch(), 2u);
  EXPECT_EQ(pool.member_count(), 2u);
  EXPECT_EQ(pool.usable_count(), 2u);

  // The joiner owns arcs: some keys route to slot 1.
  EXPECT_GT(keys_routed_to(pool, 1), 0)
      << "a registered worker must own some arc";
}

TEST(WorkerPoolMembership, EmptyPoolBootstrapsFromFirstRegistration) {
  // A coordinator started with --coordinator and no static --workers begins
  // with an empty ring and waits for joiners.
  WorkerPool pool({}, test_policy());
  EXPECT_EQ(pool.member_count(), 0u);
  EXPECT_EQ(pool.route(util::fnv1a64("anything")), -1);

  const HostPort joiner = fleet(1)[0];
  pool.register_worker(joiner, 1000, 0);
  EXPECT_EQ(pool.route(util::fnv1a64("anything")), 0);
}

TEST(WorkerPoolMembership, RenewalKeepsEpochAndReadmitsASuspect) {
  const HostPort w = fleet(1)[0];
  WorkerPool pool({}, test_policy());
  pool.register_worker(w, 1000, 0);
  const std::uint64_t epoch = pool.epoch();

  pool.report(0, false);
  EXPECT_EQ(pool.health(0), WorkerHealth::Suspect);

  // A heartbeat is proof of life: the renewal readmits without an epoch
  // bump — the ring did not change, so in-flight routing stays valid.
  const WorkerPool::Registration r = pool.register_worker(w, 1000, 300);
  EXPECT_FALSE(r.newly_added);
  EXPECT_EQ(r.epoch, epoch);
  EXPECT_EQ(pool.epoch(), epoch);
  EXPECT_EQ(pool.health(0), WorkerHealth::Healthy);
}

TEST(WorkerPoolMembership, LeaseFloorClampsAbsurdTtls) {
  WorkerPool pool({}, test_policy());
  const WorkerPool::Registration r =
      pool.register_worker(fleet(1)[0], /*lease_ms=*/5, /*now_ms=*/0);
  EXPECT_EQ(r.lease_ms, WorkerPool::kMinLeaseMs);
}

TEST(WorkerPoolMembership, LeaseLapseDepartsTheWorker) {
  const std::vector<HostPort> addrs = fleet(2);
  // Slot 0 is static (lease 0 = never expires); slot 1 holds a 200 ms lease.
  WorkerPool pool({addrs[0]}, test_policy());
  pool.register_worker(addrs[1], 200, /*now_ms=*/0);
  const std::uint64_t epoch = pool.epoch();

  // Inside the TTL: nothing lapses. A renewal pushes the window out.
  EXPECT_TRUE(pool.expire_leases(150).empty());
  pool.register_worker(addrs[1], 200, /*now_ms=*/150);
  EXPECT_TRUE(pool.expire_leases(300).empty()) << "renewal must extend";

  // Silence past the TTL departs the member — and only it.
  const std::vector<std::string> expired = pool.expire_leases(351);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0],
            addrs[1].host + ":" + std::to_string(addrs[1].port));
  EXPECT_EQ(pool.epoch(), epoch + 1);
  EXPECT_EQ(pool.member_count(), 1u);
  EXPECT_EQ(pool.member_counts().departed, 1u);

  // The static worker's lease never lapses, no matter how late the clock.
  EXPECT_TRUE(pool.expire_leases(1'000'000'000).empty());

  // Slots are never reused: the departed worker's index is still
  // addressable, so an in-flight chunk dispatched before the expiry can
  // still report its result.
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.address(1).port, addrs[1].port);
}

TEST(WorkerPoolMembership, RejoinAfterDepartureGetsAFreshStateMachine) {
  const HostPort w = fleet(1)[0];
  WorkerPool pool({}, test_policy());
  pool.register_worker(w, 1000, 0);
  for (int i = 0; i < 3; ++i) pool.report(0, false);
  EXPECT_EQ(pool.health(0), WorkerHealth::Ejected);

  EXPECT_TRUE(pool.deregister_worker(w, 100));
  const std::uint64_t epoch_after_drain = pool.epoch();
  EXPECT_EQ(pool.member_count(), 0u);
  // Double-deregister is a no-op, not a new epoch.
  EXPECT_FALSE(pool.deregister_worker(w, 110));
  EXPECT_EQ(pool.epoch(), epoch_after_drain);

  // The rejoin is a fresh enlistment: stale ejection evidence is dropped.
  const WorkerPool::Registration r = pool.register_worker(w, 1000, 200);
  EXPECT_TRUE(r.newly_added);
  EXPECT_EQ(r.epoch, epoch_after_drain + 1);
  EXPECT_EQ(pool.health(0), WorkerHealth::Healthy);
  EXPECT_EQ(pool.usable_count(), 1u);
}

TEST(WorkerPoolMembership, JoinMovesOnlyTheNewWorkersArcs) {
  const std::vector<HostPort> addrs = fleet(4);
  WorkerPool pool({addrs[0], addrs[1], addrs[2]}, test_policy());
  std::map<std::uint64_t, int> before;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t h = util::fnv1a64("churn-" + std::to_string(i));
    before[h] = pool.route(h);
  }
  pool.register_worker(addrs[3], 1000, 0);
  for (const auto& [h, w] : before) {
    const int now = pool.route(h);
    EXPECT_TRUE(now == w || now == 3)
        << "a key may move only to the joiner, never between survivors";
  }
}

TEST(WorkerPoolMembership, GracefulDeregisterMovesOnlyTheDrainedArcs) {
  const std::vector<HostPort> addrs = fleet(3);
  WorkerPool pool(addrs, test_policy());
  std::map<std::uint64_t, int> before;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t h = util::fnv1a64("drain-" + std::to_string(i));
    before[h] = pool.route(h);
  }
  ASSERT_TRUE(pool.deregister_worker(addrs[1], 0));
  for (const auto& [h, w] : before) {
    const int now = pool.route(h);
    ASSERT_GE(now, 0);
    EXPECT_NE(now, 1);
    if (w != 1) {
      EXPECT_EQ(now, w) << "a survivor's shard must not move";
    }
  }
}

TEST(WorkerPoolMembership, DeregisterFenceWaitsForAcquiredDispatches) {
  const std::vector<HostPort> addrs = fleet(1);
  WorkerPool pool(addrs, test_policy());
  // Two dispatches routed before the departure; the departure stops any
  // further route to the member.
  ASSERT_EQ(pool.acquire(7), 0);
  ASSERT_EQ(pool.acquire(8), 0);
  ASSERT_TRUE(pool.deregister_worker(addrs[0], 0));
  EXPECT_EQ(pool.acquire(9), -1);

  // The fence holds while either is outstanding, and times out if they
  // never report.
  EXPECT_FALSE(pool.await_dispatches(addrs[0], 20));
  pool.report(0, true);
  EXPECT_FALSE(pool.await_dispatches(addrs[0], 20));

  // The last report releases a waiter without waiting out its timeout.
  std::thread reporter([&] { pool.report(0, true); });
  EXPECT_TRUE(pool.await_dispatches(addrs[0], 60000));
  reporter.join();

  // A plain route() counts nothing, and an unknown address has nothing
  // outstanding.
  WorkerPool other(addrs, test_policy());
  ASSERT_EQ(other.route(7), 0);
  EXPECT_TRUE(other.await_dispatches(addrs[0], 0));
  EXPECT_TRUE(other.await_dispatches(HostPort{"10.0.0.9", 7070}, 0));
}

TEST(WorkerPoolMembership, CoordLeaseFaultForceExpiresAFreshLease) {
  WorkerPool pool({}, test_policy());
  pool.register_worker(fleet(1)[0], /*lease_ms=*/60'000, /*now_ms=*/0);
  // The TTL has not lapsed — only the armed fault can expire it.
  EXPECT_TRUE(pool.expire_leases(10).empty());
  util::fault::arm("coord.lease", util::fault::make_errno(ETIMEDOUT), 1);
  EXPECT_EQ(pool.expire_leases(20).size(), 1u);
  util::fault::reset();
  EXPECT_EQ(pool.member_counts().departed, 1u);
}

TEST(WorkerPoolMembership, LeaseTableReportsAgesAndStaticLeases) {
  const std::vector<HostPort> addrs = fleet(2);
  WorkerPool pool({addrs[0]}, test_policy());
  pool.register_worker(addrs[1], 500, /*now_ms=*/100);

  const std::vector<LeaseInfo> table = pool.lease_table(/*now_ms=*/400);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table[0].lease_ms, 0) << "static workers carry no TTL";
  EXPECT_TRUE(table[0].alive);
  EXPECT_EQ(table[1].lease_ms, 500);
  EXPECT_EQ(table[1].age_ms, 300);
  EXPECT_TRUE(table[1].alive);
}

}  // namespace
}  // namespace sqz::serve
