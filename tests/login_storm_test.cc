// Tests for the login-storm machinery (PR 10): concurrent Login/Logout
// across the CPU pool is bit-identical on double runs at 4 and 16 CPUs,
// slab-reused process slots leak nothing from their previous life (no bill,
// no KST bindings), the profiler's lock domains add up to exactly what the
// lock sites count, and with every knob off the service's new instruments
// stay at zero while behavior stays deterministic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/answering/service.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

std::string PersonOf(int u) { return "User" + std::to_string(u); }
std::string ProjectOf(int u) { return "Proj" + std::to_string(u % 4); }
std::string PasswordOf(int u) { return "pw" + std::to_string(u); }

// ---------------------------------------------------------------------------
// Concurrent storm determinism.
// ---------------------------------------------------------------------------

struct StormTrace {
  bool ok = false;
  Cycles final_now = 0;
  Cycles makespan = 0;
  uint64_t logins = 0;
  uint64_t logouts = 0;
  uint64_t spin = 0;
  uint64_t slab_reuses = 0;
  uint64_t skel_hits = 0;
  uint64_t login_p99 = 0;
  Cycles lock_attributed = 0;  // profiler lock-spin + lock-handoff totals
  Cycles lock_counted = 0;     // the lock sites' own spin and traffic counters
  Cycles runq_lock_cycles = 0;
};

bool operator==(const StormTrace& a, const StormTrace& b) {
  return a.ok == b.ok && a.final_now == b.final_now && a.makespan == b.makespan &&
         a.logins == b.logins && a.logouts == b.logouts && a.spin == b.spin &&
         a.slab_reuses == b.slab_reuses && a.skel_hits == b.skel_hits &&
         a.login_p99 == b.login_p99 && a.lock_attributed == b.lock_attributed &&
         a.lock_counted == b.lock_counted;
}

// Every cycle a lock site charges through ChargeLockWait, as the sites count
// it themselves: the scheduler's ready list and run-queue shards (spin plus
// line bounces), the session tables, and the read-mostly sections.
Cycles LockSiteCycles(const Metrics& metrics) {
  Cycles sum = 0;
  for (const char* name :
       {"sched.list_lock_spin_cycles", "sched.list_transfer_cycles", "runq.lock_spin_cycles",
        "runq.transfer_cycles", "answering.session_lock_spin_cycles", "dir.read_spin_cycles",
        "dir.write_spin_cycles", "ksm.read_spin_cycles", "ksm.write_spin_cycles",
        "answering.skel.read_spin_cycles", "answering.skel.write_spin_cycles"}) {
    sum += metrics.Get(name);
  }
  return sum;
}

// A miniature of bench_perf_login_storm: every session op runs in its own
// anchored (and profiled) window on the furthest-behind CPU, on the
// modelled kernel and service.  `config` carries any further kernel knobs.  With
// `run_sessions`, every session gets a short program and the pool runs
// them to completion after each wave of logins.
StormTrace RunStorm(uint16_t cpus, int users, KernelConfig config = KernelConfig{},
                    bool run_sessions = false) {
  StormTrace out;
  config.cpu_count = cpus;
  config.trace.enabled = true;
  Kernel kernel(config);
  if (!kernel.Boot().ok()) {
    return out;
  }
  KernelContext& kctx = kernel.ctx();

  Authenticator auth(&kernel);
  if (!auth.Init().ok()) {
    return out;
  }
  AnsweringService service(&kernel, &auth);
  for (int u = 0; u < users; ++u) {
    if (!auth.Enroll(Principal{PersonOf(u), ProjectOf(u)}, PasswordOf(u), Label(2, 0)).ok()) {
      return out;
    }
  }

  std::vector<ProcessId> pid_of(static_cast<size_t>(users));
  auto drive = [&](auto&& op) -> bool {
    CpuWindow window(&kctx, kctx.smp.NextCpu(), ProfDomain::kSessionSetup);
    return op();
  };
  auto login = [&](int u) {
    auto pid = service.Login(Principal{PersonOf(u), ProjectOf(u)}, PasswordOf(u), Label(0, 0));
    if (!pid.ok()) {
      return false;
    }
    pid_of[static_cast<size_t>(u)] = *pid;
    return !run_sessions ||
           kernel.processes().SetProgram(*pid, {UserOp::Compute(200), UserOp::Compute(200)}).ok();
  };
  auto run_pool = [&] {
    if (!run_sessions) {
      return true;
    }
    // Reports work pending: the service daemons hold processes that never
    // get a program.  Every session's program must have finished.
    (void)kernel.processes().RunUntilQuiescent(100000);
    for (ProcessId pid : pid_of) {
      if (kernel.processes().state(pid) != ProcState::kDone) {
        return false;
      }
    }
    return true;
  };
  auto logout = [&](int u) { return service.Logout(pid_of[static_cast<size_t>(u)]).ok(); };

  // Storm front, one churn wave, drain.
  const Cycles setup_lock_cycles = LockSiteCycles(kernel.metrics());
  for (int u = 0; u < users; ++u) {
    if (!drive([&] { return login(u); })) {
      return out;
    }
  }
  if (!run_pool()) {
    return out;
  }
  for (int u = 0; u < users; ++u) {
    if (!drive([&] { return logout(u); }) || !drive([&] { return login(u); })) {
      return out;
    }
  }
  if (!run_pool()) {
    return out;
  }
  for (int u = 0; u < users; ++u) {
    if (!drive([&] { return logout(u); })) {
      return out;
    }
  }

  if (service.active_sessions() != 0 || !kernel.AuditIntegrity().empty()) {
    return out;
  }
  out.final_now = kernel.clock().now();
  out.makespan = kctx.smp.Makespan();
  const Metrics& metrics = kernel.metrics();
  out.logins = metrics.Get("answering.logins");
  out.logouts = metrics.Get("answering.logouts");
  out.spin = metrics.Get("answering.session_lock_spin_cycles");
  out.slab_reuses = metrics.Get("uproc.slab_reuses");
  out.skel_hits = metrics.Get("answering.skel_hits");
  out.login_p99 = metrics.HistPercentile("answering.login_cycles", 0.99);
  const auto domains = kctx.prof.DomainTotals();
  out.lock_attributed = domains[static_cast<size_t>(ProfDomain::kLockSpin)] +
                        domains[static_cast<size_t>(ProfDomain::kLockHandoff)];
  out.lock_counted = LockSiteCycles(metrics) - setup_lock_cycles;
  out.runq_lock_cycles =
      metrics.Get("runq.lock_spin_cycles") + metrics.Get("runq.transfer_cycles");
  if (!kernel.Shutdown().ok()) {
    return out;
  }
  out.ok = true;
  return out;
}

TEST(LoginStorm, DoubleRunBitIdenticalAt4Cpus) {
  const StormTrace a = RunStorm(4, 24);
  const StormTrace b = RunStorm(4, 24);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.logins, 2u * 24u);
  EXPECT_GT(a.slab_reuses, 0u);  // the churn wave reuses parked slots
  EXPECT_TRUE(a == b);
}

TEST(LoginStorm, DoubleRunBitIdenticalAt16Cpus) {
  const StormTrace a = RunStorm(16, 24);
  const StormTrace b = RunStorm(16, 24);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_TRUE(a == b);
}

// The lock-spin/lock-handoff split lives in one function, ChargeLockWait;
// every lock site funnels its waits through it.  So the profiler's two lock
// domains must add up to exactly what the sites count, cycle for cycle.
TEST(LoginStorm, LockAttributionEqualsTheLockSiteCounters) {
  KernelConfig config;
  config.profile.enabled = true;
  const StormTrace t = RunStorm(4, 24, config, /*run_sessions=*/true);
  ASSERT_TRUE(t.ok);
  EXPECT_GT(t.spin, 0u);  // the session tables contended
  EXPECT_GT(t.runq_lock_cycles, 0u);  // and so did the run queues
  EXPECT_EQ(t.lock_attributed, t.lock_counted);
}

// ---------------------------------------------------------------------------
// Slab-reuse correctness: a recycled slot carries nothing across sessions.
// ---------------------------------------------------------------------------

struct SlabFixture {
  // The modelled kernel pools process slots.
  SlabFixture() : kernel(KernelConfig{}), auth(&kernel), service(&kernel, &auth) {
    EXPECT_TRUE(kernel.Boot().ok());
    EXPECT_TRUE(auth.Init().ok());
    EXPECT_TRUE(auth.Enroll(Principal{"Alice", "Projx"}, "pw-a", Label(2, 0)).ok());
    EXPECT_TRUE(auth.Enroll(Principal{"Bob", "Projx"}, "pw-b", Label(2, 0)).ok());
  }
  Kernel kernel;
  Authenticator auth;
  AnsweringService service;
};

TEST(LoginStorm, SlabReuseLeaksNoBillAndNoKstBindings) {
  SlabFixture fx;
  auto alice = fx.service.Login(Principal{"Alice", "Projx"}, "pw-a", Label(0, 0));
  ASSERT_TRUE(alice.ok()) << alice.status();

  // Alice initiates a segment and runs billable work.
  ProcContext* ctx = fx.kernel.processes().Context(*alice);
  PathWalker walker(&fx.kernel.gates());
  auto entry = walker.CreateSegment(*ctx, ">udd>Projx>Alice>scratch", WorldAcl(), Label(0, 0));
  ASSERT_TRUE(entry.ok());
  auto segno = fx.kernel.gates().Initiate(*ctx, *entry);
  ASSERT_TRUE(segno.ok());
  std::vector<UserOp> program;
  for (int i = 0; i < 4; ++i) {
    program.push_back(UserOp::Write(*segno, static_cast<uint32_t>(i), i));
  }
  ASSERT_TRUE(fx.kernel.processes().SetProgram(*alice, std::move(program)).ok());
  ASSERT_TRUE(fx.kernel.processes().RunUntilQuiescent(10000).ok());
  auto bill = fx.service.BillFor(*alice);
  ASSERT_TRUE(bill.ok());
  EXPECT_GT(bill->ops, 0u);
  ASSERT_TRUE(fx.kernel.known_segments().Lookup(*alice, *segno) != nullptr);

  // Logout parks the slot instead of tearing it down.
  ASSERT_TRUE(fx.service.Logout(*alice).ok());
  EXPECT_EQ(fx.kernel.processes().slab_free(), 1u);

  // Bob's login recycles Alice's slot: same ProcessId, nothing inherited.
  auto bob = fx.service.Login(Principal{"Bob", "Projx"}, "pw-b", Label(0, 0));
  ASSERT_TRUE(bob.ok()) << bob.status();
  EXPECT_EQ(bob->value, alice->value);
  EXPECT_EQ(fx.kernel.processes().slab_free(), 0u);
  EXPECT_EQ(fx.kernel.metrics().Get("uproc.slab_reuses"), 1u);
  EXPECT_GE(fx.kernel.metrics().Get("ksm.kst_resets"), 1u);
  // Alice's KST binding is gone from the recycled table...
  EXPECT_EQ(fx.kernel.known_segments().Lookup(*bob, *segno), nullptr);
  // ...and the fresh session owes nothing for Alice's work.
  auto fresh_bill = fx.service.BillFor(*bob);
  ASSERT_TRUE(fresh_bill.ok());
  EXPECT_EQ(fresh_bill->ops, 0u);
  EXPECT_EQ(fresh_bill->cpu_cycles, 0u);

  // The recycled table is immediately usable for Bob's own bindings.
  ProcContext* bctx = fx.kernel.processes().Context(*bob);
  auto bentry = walker.CreateSegment(*bctx, ">udd>Projx>Bob>scratch", WorldAcl(), Label(0, 0));
  ASSERT_TRUE(bentry.ok());
  EXPECT_TRUE(fx.kernel.gates().Initiate(*bctx, *bentry).ok());
  ASSERT_TRUE(fx.service.Logout(*bob).ok());

  // Shutdown drains the parked slot; nothing dangles.
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
  EXPECT_TRUE(fx.kernel.Shutdown().ok());
}

TEST(LoginStorm, AccountingSurvivesSlabReuse) {
  SlabFixture fx;
  auto alice = fx.service.Login(Principal{"Alice", "Projx"}, "pw-a", Label(0, 0));
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(fx.service.Logout(*alice).ok());
  auto bob = fx.service.Login(Principal{"Bob", "Projx"}, "pw-b", Label(0, 0));
  ASSERT_TRUE(bob.ok());
  ASSERT_TRUE(fx.service.Logout(*bob).ok());
  // Both principals appear in the report even though they shared one slot.
  const std::string report = fx.service.AccountingReport();
  EXPECT_NE(report.find("Alice.Projx"), std::string::npos);
  EXPECT_NE(report.find("Bob.Projx"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Knobs off: the seed service on the 1977 machine (comparator table).
// ---------------------------------------------------------------------------

Cycles RunSerialSessions(uint64_t* spin, uint64_t* skel, uint64_t* slab) {
  Kernel kernel{comparator::k1977.Apply()};
  EXPECT_TRUE(kernel.Boot().ok());
  Authenticator auth(&kernel);
  EXPECT_TRUE(auth.Init().ok());
  AnsweringService service(&kernel, &auth, ServiceDomain::kUserDomain,
                           comparator::kSerialService);
  for (int u = 0; u < 4; ++u) {
    EXPECT_TRUE(
        auth.Enroll(Principal{PersonOf(u), ProjectOf(u)}, PasswordOf(u), Label(2, 0)).ok());
  }
  for (int round = 0; round < 2; ++round) {
    for (int u = 0; u < 4; ++u) {
      auto pid =
          service.Login(Principal{PersonOf(u), ProjectOf(u)}, PasswordOf(u), Label(0, 0));
      EXPECT_TRUE(pid.ok());
      if (pid.ok()) {
        EXPECT_TRUE(service.Logout(*pid).ok());
      }
    }
  }
  const Metrics& metrics = kernel.metrics();
  *spin = metrics.Get("answering.session_lock_spin_cycles");
  *skel = metrics.Get("answering.skel_hits") + metrics.Get("answering.skel_misses");
  *slab = metrics.Get("uproc.slab_reuses") + metrics.Get("ksm.kst_resets");
  return kernel.clock().now();
}

TEST(LoginStorm, KnobsOffChargesNothingAndStaysDeterministic) {
  uint64_t spin = 0, skel = 0, slab = 0;
  const Cycles first = RunSerialSessions(&spin, &skel, &slab);
  // The seed path never touches a table lock, the skeleton cache, or the
  // process slab: every new instrument reads zero.
  EXPECT_EQ(spin, 0u);
  EXPECT_EQ(skel, 0u);
  EXPECT_EQ(slab, 0u);
  // Identical runs land on the identical final clock.
  const Cycles second = RunSerialSessions(&spin, &skel, &slab);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace mks
