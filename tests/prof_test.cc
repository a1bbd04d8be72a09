// Tests for the cycle-accounting profiler and the stall watchdog.
//
// The profiler's contract (DESIGN.md §5): with profiling on, every cycle a
// CPU's local clock advances is attributed to exactly one domain node, so
//
//     attributed(cpu) == accrued(cpu) == smp.local_now(cpu)
//
// holds at quiescence for every workload shape and every pool size; with
// profiling off the kernel's observable behaviour is bit-identical.  The
// watchdog's contract is independent: a scheduler-progress stamp (quanta run
// + device completions + wakeups) frozen across `stall_rounds` dispatch
// rounds aborts with a flight-recorder dump.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/sim/scope.h"
#include "src/sync/spinlock.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// Unit level: attribution mechanics against a bare clock.
// ---------------------------------------------------------------------------

// A bare clock, profiler and frame stack with two registered managers.
struct ProfRig {
  Clock clock;
  CostModel cost{&clock};
  Prof prof{&clock};
  CallTracker tracker;
  ScopeStack scopes{&tracker, &prof, nullptr};
  ModuleId gates = scopes.Register("gates");
  ModuleId pages = scopes.Register("pages");

  explicit ProfRig(uint16_t cpus) {
    ProfConfig config;
    config.enabled = true;
    prof.Enable(cpus, config);
  }
};

TEST(ProfUnit, ScopesSplitAWindowExactly) {
  ProfRig rig(2);
  Prof& prof = rig.prof;
  CostModel& cost = rig.cost;
  {
    Prof::Window window(&prof, 0, ProfDomain::kDispatch);
    cost.Charge(CodeStyle::kOptimized, 100);
    {
      ManagerScope gate(&rig.scopes, rig.gates, ProfDomain::kGate);
      cost.Charge(CodeStyle::kOptimized, 40);
      {
        ManagerScope lock(&rig.scopes, ProfDomain::kLockSpin);
        cost.Charge(CodeStyle::kOptimized, 7);
      }
    }
    cost.Charge(CodeStyle::kOptimized, 10);
  }
  prof.NoteAccrue(0, 157);
  EXPECT_EQ(prof.attributed(0), 157u);
  EXPECT_EQ(prof.accrued(0), 157u);
  EXPECT_EQ(prof.attributed(1), 0u);
  const auto totals = prof.DomainTotals();
  EXPECT_EQ(totals[static_cast<size_t>(ProfDomain::kDispatch)], 110u);
  EXPECT_EQ(totals[static_cast<size_t>(ProfDomain::kGate)], 40u);
  EXPECT_EQ(totals[static_cast<size_t>(ProfDomain::kLockSpin)], 7u);
  // The tree keeps the nesting as a manager path: the lock-spin cell
  // inherits its manager from the gate cell under the manager-less root.
  const std::string folded = prof.CollapsedStacks();
  EXPECT_NE(folded.find("cpu0;dispatch 110\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("cpu0;dispatch;gates:gate 40\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("cpu0;dispatch;gates:gate;gates:lock-spin 7\n"), std::string::npos)
      << folded;
}

TEST(ProfUnit, ScopesAreInertOutsideAWindow) {
  ProfRig rig(1);
  Prof& prof = rig.prof;
  // Boot/setup shape: charges with no window open must not be attributed.
  {
    ManagerScope orphan(&rig.scopes, rig.gates, ProfDomain::kGate);
    rig.cost.Charge(CodeStyle::kOptimized, 500);
  }
  EXPECT_EQ(prof.attributed(0), 0u);
  EXPECT_TRUE(prof.CollapsedStacks().empty());
  // A window attributes only the frames entered after it opened: cycles
  // under a frame entered before it land on the window's root.
  {
    ManagerScope outer(&rig.scopes, rig.gates, ProfDomain::kGate);
    Prof::Window window(&prof, 0, ProfDomain::kDispatch);
    rig.cost.Charge(CodeStyle::kOptimized, 30);
  }
  EXPECT_EQ(prof.attributed(0), 30u);
  EXPECT_EQ(prof.CollapsedStacks(), "cpu0;dispatch 30\n");
}

TEST(ProfUnit, BarrierKeepsTheCellPath) {
  ProfRig rig(1);
  {
    Prof::Window window(&rig.prof, 0, ProfDomain::kDispatch);
    ManagerScope gate(&rig.scopes, rig.gates, ProfDomain::kGate);
    // A fault entry blocks the lattice edge but not profiler nesting: its
    // cycles stay under the interrupted manager until a module names itself.
    ManagerScope fault(&rig.scopes, kBarrier, ProfDomain::kFaultService);
    rig.cost.Charge(CodeStyle::kOptimized, 5);
    ManagerScope page(&rig.scopes, rig.pages);
    rig.cost.Charge(CodeStyle::kOptimized, 9);
  }
  EXPECT_FALSE(rig.tracker.observed().HasEdge(rig.gates, rig.pages));
  const auto cells = rig.prof.Cells(0);
  EXPECT_EQ(cells.at({"gates", ProfDomain::kFaultService}), 5u);
  EXPECT_EQ(cells.at({"pages", ProfDomain::kFaultService}), 9u);
  EXPECT_EQ(rig.prof.CollapsedStacks(),
            "cpu0;dispatch;gates:gate;gates:fault-service 5\n"
            "cpu0;dispatch;gates:gate;gates:fault-service;pages:fault-service 9\n");
}

TEST(ProfUnit, WatchdogCountsOnlyConsecutiveFrozenRounds) {
  Clock clock;
  Prof prof(&clock);
  ProfConfig config;
  config.stall_rounds = 3;
  prof.Enable(1, config);  // watchdog armed, attribution off
  EXPECT_FALSE(prof.NoteDispatchRound(10));
  EXPECT_FALSE(prof.NoteDispatchRound(10));
  EXPECT_FALSE(prof.NoteDispatchRound(10));
  EXPECT_FALSE(prof.NoteDispatchRound(11));  // progress resets the count
  EXPECT_FALSE(prof.NoteDispatchRound(11));
  EXPECT_FALSE(prof.NoteDispatchRound(11));
  EXPECT_TRUE(prof.NoteDispatchRound(11));

  Prof disarmed(&clock);
  disarmed.Enable(1, ProfConfig{});  // stall_rounds == 0: never fires
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(disarmed.NoteDispatchRound(42));
  }
}

// ---------------------------------------------------------------------------
// Kernel level: the accounting identity on real workloads.
// ---------------------------------------------------------------------------

// Asserts the ledger identity on every CPU of a finished run.
void ExpectLedgerBalanced(Kernel& kernel) {
  Prof& prof = kernel.ctx().prof;
  ASSERT_TRUE(prof.enabled());
  Cycles attributed_total = 0;
  for (uint16_t cpu = 0; cpu < prof.cpu_count(); ++cpu) {
    EXPECT_EQ(prof.attributed(cpu), prof.accrued(cpu)) << "cpu " << cpu;
    EXPECT_EQ(prof.accrued(cpu), kernel.ctx().smp.local_now(cpu)) << "cpu " << cpu;
    attributed_total += prof.attributed(cpu);
  }
  // The domain totals are a partition of the same cycles.
  Cycles domain_total = 0;
  for (Cycles c : kernel.ctx().prof.DomainTotals()) {
    domain_total += c;
  }
  EXPECT_EQ(domain_total, attributed_total);
}

KernelConfig ProfConfigFor(uint16_t cpus) {
  KernelConfig config;
  config.cpu_count = cpus;
  config.vp_count = 6;
  config.memory_frames = 48;
  config.profile.enabled = true;
  return config;
}

// P11 shape: private paged working sets larger than memory, so dispatch,
// fault service, and paging I/O all run; each program ends with a gate call
// (an eventcount advance) from inside its quantum.
constexpr workload::Shape kFaultStorm{.kind = workload::Kind::kComputeWrite,
                                      .processes = 6,
                                      .pages = 10,
                                      .ops = 40,
                                      .compute = 25,
                                      .populate = false,
                                      .value_base = 1,
                                      .advance_when_done = true,
                                      .path = ">work>f",
                                      .person = "F"};

// P12 shape: every process sweeps the SAME segment with async paging on, so
// CPUs collide on in-flight pages and park on locked descriptors.
constexpr workload::Shape kSharedStorm{.kind = workload::Kind::kSharedSweep,
                                       .processes = 4,
                                       .pages = 24,
                                       .rounds = 2,
                                       .path = ">work>shared",
                                       .person = "S"};

TEST(ProfInvariant, FaultStormBalancesAtEveryPoolSize) {
  for (uint16_t cpus : {uint16_t{1}, uint16_t{4}, uint16_t{16}}) {
    Kernel kernel{ProfConfigFor(cpus)};
    ASSERT_TRUE(kernel.Boot().ok());
    ASSERT_TRUE(workload::Run(kernel, kFaultStorm, 1000000).ok);
    ExpectLedgerBalanced(kernel);
  }
}

TEST(ProfInvariant, SharedSegmentStormBalancesAtEveryPoolSize) {
  for (uint16_t cpus : {uint16_t{1}, uint16_t{4}, uint16_t{16}}) {
    KernelConfig config = ProfConfigFor(cpus);
    // Boot pins most of the 48-frame pool in kernel core, leaving fewer free
    // frames than the 24-page shared sweep, so the storm faults continuously.
    config.async_paging = true;
    Kernel kernel{config};
    ASSERT_TRUE(kernel.Boot().ok());
    ASSERT_TRUE(workload::Run(kernel, kSharedStorm, 2000000).ok);
    ExpectLedgerBalanced(kernel);
  }
}

// P16 shape: the bench drives gate calls directly, one anchored window per
// op, the way bench_perf_name_storm does — exercises Window outside the
// process scheduler.
TEST(ProfInvariant, DirectDrivenWindowsBalanceAtEveryPoolSize) {
  for (uint16_t cpus : {uint16_t{1}, uint16_t{4}, uint16_t{16}}) {
    KernelConfig config = ProfConfigFor(cpus);
    Kernel kernel{config};
    ASSERT_TRUE(kernel.Boot().ok());
    KernelContext& kctx = kernel.ctx();
    PathWalker walker(&kernel.gates());
    auto pid = kernel.processes().CreateProcess(TestSubject());
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = kernel.processes().Context(*pid);
    for (uint32_t s = 0; s < 4; ++s) {
      ASSERT_TRUE(walker
                      .CreateSegment(*ctx, ">lib>s" + std::to_string(s), WorldAcl(),
                                     Label::SystemLow())
                      .ok());
    }
    kctx.smp.AlignAll();
    for (uint32_t i = 0; i < 64; ++i) {
      CpuWindow window(&kctx, kctx.smp.NextCpu(), ProfDomain::kGate);
      ASSERT_TRUE(walker.Walk(*ctx, ">lib>s" + std::to_string(i % 4)).ok());
    }
    ExpectLedgerBalanced(kernel);
    // A naming walk is gate + directory-read time, by construction.
    const auto totals = kernel.ctx().prof.DomainTotals();
    EXPECT_GT(totals[static_cast<size_t>(ProfDomain::kGate)], 0u);
    EXPECT_GT(totals[static_cast<size_t>(ProfDomain::kDirectoryRead)], 0u);
  }
}

// The manager axis partitions the same ledger: per CPU the (manager,
// activity) cells sum to attributed == accrued, and summing them over
// managers gives the per-activity DomainTotals.
TEST(ProfInvariant, ManagerCellsSumToTheLedger) {
  for (uint16_t cpus : {uint16_t{1}, uint16_t{4}, uint16_t{16}}) {
    Kernel kernel{ProfConfigFor(cpus)};
    ASSERT_TRUE(kernel.Boot().ok());
    ASSERT_TRUE(workload::Run(kernel, kFaultStorm, 1000000).ok);
    const Prof& prof = kernel.ctx().prof;
    std::array<Cycles, kProfDomainCount> by_activity{};
    std::map<std::pair<std::string, ProfDomain>, Cycles> cells;
    for (uint16_t cpu = 0; cpu < prof.cpu_count(); ++cpu) {
      Cycles cpu_total = 0;
      for (const auto& [cell, cycles] : prof.Cells(cpu)) {
        cpu_total += cycles;
        by_activity[static_cast<size_t>(cell.second)] += cycles;
        cells[cell] += cycles;
      }
      EXPECT_EQ(cpu_total, prof.attributed(cpu)) << "cpu " << cpu;
      EXPECT_EQ(prof.attributed(cpu), prof.accrued(cpu)) << "cpu " << cpu;
    }
    EXPECT_EQ(by_activity, prof.DomainTotals()) << cpus << " cpus";
    EXPECT_GT((cells[{module_names::kPageFrame, ProfDomain::kFaultService}]), 0u);
    EXPECT_GT((cells[{module_names::kGates, ProfDomain::kGate}]), 0u);
  }
}

TEST(ProfInvariant, FaultStormPopulatesTheExpectedDomains) {
  Kernel kernel{ProfConfigFor(4)};
  ASSERT_TRUE(kernel.Boot().ok());
  ASSERT_TRUE(workload::Run(kernel, kFaultStorm, 1000000).ok);
  const auto totals = kernel.ctx().prof.DomainTotals();
  EXPECT_GT(totals[static_cast<size_t>(ProfDomain::kDispatch)], 0u);
  EXPECT_GT(totals[static_cast<size_t>(ProfDomain::kUprocQuantum)], 0u);
  EXPECT_GT(totals[static_cast<size_t>(ProfDomain::kFaultService)], 0u);
  EXPECT_GT(totals[static_cast<size_t>(ProfDomain::kPagingIo)], 0u);
}

TEST(ProfDeterminism, CollapsedStacksAreBitIdenticalAcrossRuns) {
  std::string first;
  for (int run = 0; run < 2; ++run) {
    Kernel kernel{ProfConfigFor(4)};
    ASSERT_TRUE(kernel.Boot().ok());
    ASSERT_TRUE(workload::Run(kernel, kFaultStorm, 1000000).ok);
    const std::string folded = kernel.ctx().prof.CollapsedStacks();
    EXPECT_FALSE(folded.empty());
    if (run == 0) {
      first = folded;
    } else {
      EXPECT_EQ(first, folded);
    }
  }
}

// ---------------------------------------------------------------------------
// Off-mode invisibility: profiling may never change what the kernel does.
// ---------------------------------------------------------------------------

TEST(ProfInvisibility, EnablingTheProfilerChangesNoObservableState) {
  std::map<std::string, uint64_t, std::less<>> counters[2];
  Cycles clocks[2] = {0, 0};
  for (int on = 0; on < 2; ++on) {
    KernelConfig config = ProfConfigFor(4);
    config.profile.enabled = on == 1;
    config.profile.stall_rounds = on == 1 ? 10000 : 0;  // watchdog too
    Kernel kernel{config};
    ASSERT_TRUE(kernel.Boot().ok());
    ASSERT_TRUE(workload::Run(kernel, kFaultStorm, 1000000).ok);
    counters[on] = kernel.metrics().counters();
    clocks[on] = kernel.clock().now();
    EXPECT_TRUE(kernel.AuditIntegrity().empty());
  }
  EXPECT_EQ(counters[0], counters[1]);
  EXPECT_EQ(clocks[0], clocks[1]);
}

TEST(ProfInvisibility, ProfilerIsOffByDefault) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  EXPECT_FALSE(fx.kernel.ctx().prof.enabled());
  EXPECT_EQ(fx.kernel.ctx().prof.attributed(0), 0u);
}

// ---------------------------------------------------------------------------
// The stall watchdog: a never-released lock freezes the progress stamp.
// ---------------------------------------------------------------------------

TEST(ProfWatchdogDeathTest, FrozenClockDumpsAndAborts) {
  KernelConfig config;
  config.cpu_count = 1;
  config.vp_count = 4;
  config.profile.enabled = true;  // the dump includes domain trees
  config.profile.stall_rounds = 64;
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  auto pid = kernel.processes().CreateProcess(TestSubject());
  ASSERT_TRUE(pid.ok());
  ProcContext* ctx = kernel.processes().Context(*pid);
  // The bug under test: a lock acquired once and never released, polled by a
  // kernel task that reports "work done" on every pass while the parked
  // process keeps the system from quiescing.  No quantum runs, no completion
  // lands, no process wakes — the progress stamp pins while the per-pass vp
  // bookkeeping keeps the raw clock creeping, which is why the watchdog keys
  // on the stamp and not the clock.
  SimSpinLock stall_lock;
  stall_lock.Acquire(0);
  ASSERT_TRUE(
      kernel.vprocs().BindKernelTask("staller", [&] { return stall_lock.held(); }).ok());
  auto ec = kernel.gates().CreateEventcount(*ctx, Label::SystemLow());
  ASSERT_TRUE(ec.ok());
  ASSERT_TRUE(kernel.processes()
                  .SetProgram(*pid, {UserOp::Await(*ec, 1)})  // never advanced
                  .ok());
  EXPECT_DEATH((void)kernel.processes().RunUntilQuiescent(100000), "STALL WATCHDOG");
}

}  // namespace
}  // namespace mks
