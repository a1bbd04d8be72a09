// Tests for the sharded per-CPU run queues (PR 5): determinism with work
// stealing on, fixed steal-victim ordering, affinity masks under dispatch
// pressure, and knobs-off equivalence with the legacy global ready list.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/sim/cpu_sched.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// A mixed compute/paged-write workload across six processes at quantum 3
// (several dispatches per program); working sets overflow the frame pool,
// so parking and re-readying exercise the wake -> enqueue path.
constexpr workload::Shape kMix = TestMix(48, /*quantum=*/3);

KernelConfig RqConfig(uint16_t cpus, bool sharded, bool steal, Cycles connect_cost) {
  KernelConfig config;
  config.cpu_count = cpus;
  config.memory_frames = 48;  // 6 procs x 10 pages = 60 > 48: eviction pressure
  config.vp_count = 6;
  config.sharded_runqueues = sharded;
  config.steal = steal;
  config.connect_cost = connect_cost;
  return config;
}

TEST(RunQueueDeterminism, TwoShardedStealRunsAreBitIdentical) {
  const KernelConfig config = RqConfig(4, /*sharded=*/true, /*steal=*/true,
                                       /*connect_cost=*/200);
  const workload::Snapshot a = workload::Run(config, kMix, 1000000);
  const workload::Snapshot b = workload::Run(config, kMix, 1000000);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  // Work stealing and the connect-cost charges are part of the deterministic
  // interleaving: the full counter dump (runq.steals, per-shard depths, the
  // per-CPU busy clocks), the audit, the global clock, and the stored values
  // must all match exactly across runs.
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.audit, b.audit);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.values, b.values);
}

TEST(RunQueueEquivalence, KnobsOffIsByteIdenticalAndStealAloneIsInert) {
  // steal=true without sharded_runqueues configures no queues at all: the
  // knob combination must be byte-identical to the defaults.
  const workload::Snapshot off = workload::Run(RqConfig(4, false, false, 0), kMix, 1000000);
  const workload::Snapshot steal_only =
      workload::Run(RqConfig(4, false, true, 0), kMix, 1000000);
  ASSERT_TRUE(off.ok);
  ASSERT_TRUE(steal_only.ok);
  EXPECT_EQ(off.counters, steal_only.counters);
  EXPECT_EQ(off.clock, steal_only.clock);
  EXPECT_EQ(off.values, steal_only.values);
}

TEST(RunQueueEquivalence, ShardedComputesTheSameResultsAsTheGlobalList) {
  // Sharding changes who runs where and what the dispatch path charges —
  // never what the programs compute.  Same stored values, everything
  // finishes, books balance.
  const workload::Snapshot global =
      workload::Run(RqConfig(4, false, false, 0), kMix, 1000000);
  const workload::Snapshot sharded =
      workload::Run(RqConfig(4, true, true, 200), kMix, 1000000);
  ASSERT_TRUE(global.ok);
  ASSERT_TRUE(sharded.ok);
  EXPECT_EQ(global.values, sharded.values);
  EXPECT_TRUE(global.all_done);
  EXPECT_TRUE(sharded.all_done);
  EXPECT_TRUE(global.audit.empty()) << global.audit.front();
  EXPECT_TRUE(sharded.audit.empty()) << sharded.audit.front();
}

TEST(RunQueueEquivalence, ProgramlessProcessesFinishUnderBothDispatchers) {
  // A process created without a program (a session before its first
  // command, the answering daemon) is ready with nothing to run.  Both
  // dispatchers must run it to kDone next to a process that has work,
  // instead of quiescing with it still pending.
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "global");
    KernelFixture fx(RqConfig(4, sharded, sharded, 200));
    ASSERT_TRUE(fx.boot_status.ok());
    auto idle = fx.kernel.processes().CreateProcess(TestSubject("Idle"));
    ASSERT_TRUE(idle.ok());
    auto busy = fx.kernel.processes().CreateProcess(TestSubject("Busy"));
    ASSERT_TRUE(busy.ok());
    ASSERT_TRUE(fx.kernel.processes()
                    .SetProgram(*busy, {UserOp::Compute(40), UserOp::Compute(40)})
                    .ok());
    const Status run = fx.kernel.processes().RunUntilQuiescent(1000);
    EXPECT_TRUE(run.ok()) << run;
    EXPECT_EQ(fx.kernel.processes().state(fx.pid), ProcState::kDone);
    EXPECT_EQ(fx.kernel.processes().state(*idle), ProcState::kDone);
    EXPECT_EQ(fx.kernel.processes().state(*busy), ProcState::kDone);
    EXPECT_EQ(fx.kernel.processes().stats(*busy).ops_executed, 2u);
    EXPECT_TRUE(fx.kernel.processes().AllDone());
  }
}

// ---------------------------------------------------------------------------
// RunQueueSet unit level: steal ordering and mask filtering.
// ---------------------------------------------------------------------------

struct RqRig {
  Clock clock;
  CostModel cost{&clock};
  Metrics metrics;
  Tracer trace{&clock, &metrics};
  ScopeStack scopes{nullptr, nullptr, &trace};
  RunQueueSet rq;

  explicit RqRig(uint16_t cpus, bool steal, Cycles connect_cost = 0)
      : rq(cpus, steal, connect_cost, &cost, &metrics, &scopes) {}
};

TEST(RunQueueSetUnit, StealScansVictimsInFixedAscendingOrder) {
  RqRig rig(4, /*steal=*/true);
  // Hint-pin one any-CPU item to each of queues 2, 1, 3 (enqueue order
  // deliberately scrambled; placement, not arrival, must decide).
  rig.rq.Enqueue(22, 0, /*from_cpu=*/2, /*hint_cpu=*/2, 0);
  rig.rq.Enqueue(11, 0, /*from_cpu=*/1, /*hint_cpu=*/1, 0);
  rig.rq.Enqueue(33, 0, /*from_cpu=*/3, /*hint_cpu=*/3, 0);
  ASSERT_EQ(rig.rq.depth(1), 1u);
  ASSERT_EQ(rig.rq.depth(2), 1u);
  ASSERT_EQ(rig.rq.depth(3), 1u);
  // CPU 0's own queue is empty: victims scan 1, 2, 3 — in that order, every
  // time, regardless of queue depths or enqueue order.
  const auto first = rig.rq.Dequeue(0, 0);
  ASSERT_TRUE(first.ok);
  EXPECT_TRUE(first.stolen);
  EXPECT_EQ(first.id, 11u);
  EXPECT_EQ(first.victim, 1u);
  const auto second = rig.rq.Dequeue(0, 0);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.id, 22u);
  EXPECT_EQ(second.victim, 2u);
  const auto third = rig.rq.Dequeue(0, 0);
  ASSERT_TRUE(third.ok);
  EXPECT_EQ(third.id, 33u);
  EXPECT_EQ(third.victim, 3u);
  EXPECT_FALSE(rig.rq.Dequeue(0, 0).ok);
  EXPECT_EQ(rig.metrics.Get("runq.steals"), 3u);
}

TEST(RunQueueSetUnit, StealSkipsAffinityIncompatibleItems) {
  RqRig rig(4, /*steal=*/true);
  // Queue 1 holds an item only CPU 1 may run; queue 2 holds an any-CPU item.
  rig.rq.Enqueue(11, /*mask=*/1u << 1, /*from_cpu=*/1, RunQueueSet::kNoCpu, 0);
  rig.rq.Enqueue(22, /*mask=*/0, /*from_cpu=*/2, /*hint_cpu=*/2, 0);
  ASSERT_EQ(rig.rq.depth(1), 1u);
  // The thief checks victim 1 first, finds nothing it may run, and moves on.
  const auto popped = rig.rq.Dequeue(0, 0);
  ASSERT_TRUE(popped.ok);
  EXPECT_TRUE(popped.stolen);
  EXPECT_EQ(popped.id, 22u);
  EXPECT_EQ(popped.victim, 2u);
  EXPECT_EQ(rig.rq.depth(1), 1u);  // the pinned item was not disturbed
  // CPU 1 takes its own pinned item off the front, unstolen.
  const auto own = rig.rq.Dequeue(1, 0);
  ASSERT_TRUE(own.ok);
  EXPECT_FALSE(own.stolen);
  EXPECT_EQ(own.id, 11u);
}

TEST(RunQueueSetUnit, StealDisabledLeavesOtherQueuesAlone) {
  RqRig rig(2, /*steal=*/false);
  rig.rq.Enqueue(7, 0, /*from_cpu=*/1, /*hint_cpu=*/1, 0);
  EXPECT_FALSE(rig.rq.Dequeue(0, 0).ok);
  EXPECT_TRUE(rig.rq.AnyQueued());
  EXPECT_TRUE(rig.rq.Dequeue(1, 0).ok);
}

// ---------------------------------------------------------------------------
// Affinity under pressure.
// ---------------------------------------------------------------------------

TEST(RunQueueAffinity, InvalidMaskIsRejected) {
  KernelFixture fx(RqConfig(2, true, true, 0));
  ASSERT_TRUE(fx.boot_status.ok());
  // Bit 2 names a CPU outside the 2-CPU pool: the mask excludes every CPU.
  EXPECT_EQ(fx.kernel.processes().SetAffinity(fx.pid, 1u << 2).code(),
            Code::kInvalidArgument);
  EXPECT_EQ(fx.kernel.processes().SetAffinity(fx.pid, 0x3).code(), Code::kOk);
  EXPECT_EQ(fx.kernel.processes().affinity(fx.pid), 0x3u);
  EXPECT_EQ(fx.kernel.processes().SetAffinity(ProcessId(999), 1).code(), Code::kNotFound);
}

TEST(RunQueueAffinity, MasksAreRespectedUnderDispatchPressure) {
  KernelConfig config = RqConfig(4, /*sharded=*/true, /*steal=*/true, /*connect_cost=*/200);
  config.trace.enabled = true;
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  kernel.processes().set_quantum(2);  // maximal dispatch pressure
  PathWalker walker(&kernel.gates());
  std::map<uint32_t, uint32_t> pin_of;  // pid -> affinity mask
  std::vector<ProcessId> pids;
  for (uint32_t i = 0; i < 8; ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject(Numbered("A", i)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">work>a" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    ASSERT_TRUE(entry.ok());
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    ASSERT_TRUE(segno.ok());
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 32; ++n) {
      program.push_back(UserOp::Compute(30));
      program.push_back(UserOp::Write(*segno, (n % 4) * kPageWords, n));
    }
    ASSERT_TRUE(kernel.processes().SetProgram(*pid, std::move(program)).ok());
    // Interleave pins: even processes on CPUs {0,1}, odd on CPUs {2,3}.
    // With 8 runnable processes on 4 CPUs every dispatch is contended, so any
    // mask violation (a steal crossing the pin, a mis-homed enqueue) shows.
    const uint32_t pin = (i % 2 == 0) ? 0x3u : 0xcu;
    ASSERT_TRUE(kernel.processes().SetAffinity(*pid, pin).ok());
    pin_of[pid->value] = pin;
    pids.push_back(*pid);
  }
  ASSERT_TRUE(kernel.processes().RunUntilQuiescent(1000000).ok());
  for (ProcessId pid : pids) {
    EXPECT_EQ(kernel.processes().state(pid), ProcState::kDone);
  }
  // Every surviving quantum span must have run on a CPU its process's mask
  // allows.
  const Tracer& trace = kernel.ctx().trace;
  uint64_t quanta_seen = 0;
  for (uint16_t cpu = 0; cpu < 4; ++cpu) {
    for (const TraceRecord& rec : trace.Snapshot(cpu)) {
      if (trace.EventName(rec.event) != "uproc.quantum") {
        continue;
      }
      auto pin = pin_of.find(rec.proc);
      if (pin == pin_of.end()) {
        continue;
      }
      ++quanta_seen;
      EXPECT_NE(pin->second & (1u << rec.cpu), 0u)
          << "process " << rec.proc << " (mask " << pin->second << ") ran a quantum on cpu "
          << rec.cpu;
    }
  }
  EXPECT_GT(quanta_seen, 0u);
  // Both halves of the pool did real work.
  for (uint16_t cpu = 0; cpu < 4; ++cpu) {
    EXPECT_GT(kernel.metrics().Get("smp.cpu" + std::to_string(cpu) + ".busy_cycles"), 0u);
  }
}

}  // namespace
}  // namespace mks
