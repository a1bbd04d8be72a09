// Tests for the simulated CPU pool: deterministic interleaving, the per-CPU
// hardware state (associative memories, DSBRs, the wakeup-waiting switch),
// and the broadcast invalidation protocol.
//
// The two load-bearing properties:
//  * determinism — the interleaving is a function of the workload alone, so
//    two runs with the same KernelConfig produce bit-identical metrics,
//    audits, and clocks even at cpu_count > 1;
//  * functional transparency — the pool changes only the accounting overlay
//    (local clocks, makespan), never what the kernel computes, so any
//    cpu_count yields the same stored values and a clean integrity audit.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// Kernel-level: determinism and equivalence under the pool.
// ---------------------------------------------------------------------------

// The mixed workload: compute + paged writes across six processes, working
// sets larger than memory so eviction and — when enabled — the paging
// pipeline engage.
constexpr workload::Shape kMix = TestMix(60);

KernelConfig SmpConfig(uint16_t cpus) {
  KernelConfig config;
  config.cpu_count = cpus;
  config.memory_frames = 48;  // 6 procs x 10 pages = 60 > 48: eviction pressure
  config.vp_count = 6;
  return config;
}

TEST(SmpDeterminism, TwoRunsAtFourCpusAreBitIdentical) {
  KernelConfig config = SmpConfig(4);
  config.paging_pipeline = PagingPipeline::Full();
  const workload::Snapshot a = workload::Run(config, kMix, 1000000);
  const workload::Snapshot b = workload::Run(config, kMix, 1000000);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  // The full metrics dump — every counter, including the per-CPU
  // smp.cpuK.busy_cycles/quanta — must match exactly, as must the audit
  // report and the global clock.  Any divergence means the interleaving
  // consulted something outside the simulation.
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.audit, b.audit);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.values, b.values);
}

// Cycles spent waiting on the scheduler's ready-list lock and the naming
// locks: the only work a wider pool adds on the 1977 machine.
Cycles LockWaitCycles(const workload::Snapshot& snap) {
  Cycles total = 0;
  for (const char* name :
       {"sched.list_lock_spin_cycles", "dir.read_spin_cycles", "dir.write_spin_cycles",
        "ksm.read_spin_cycles", "ksm.write_spin_cycles"}) {
    total += snap.counters.at(name);
  }
  return total;
}

TEST(SmpEquivalence, CpuCountNeverChangesWhatTheKernelComputes) {
  // The 1977 machine: cross-CPU traffic is free and global dispatch order
  // ignores the pool, so the pool changes nothing but who waits for a lock.
  const workload::Snapshot uni =
      workload::Run(comparator::k1977.Apply(SmpConfig(1)), kMix, 1000000);
  const workload::Snapshot smp =
      workload::Run(comparator::k1977.Apply(SmpConfig(4)), kMix, 1000000);
  ASSERT_TRUE(uni.ok);
  ASSERT_TRUE(smp.ok);
  // Same stored values, clean audits on both.
  EXPECT_EQ(uni.values, smp.values);
  EXPECT_TRUE(uni.audit.empty()) << uni.audit.front();
  EXPECT_TRUE(smp.audit.empty()) << smp.audit.front();
  // The serialized totals agree cycle for cycle once the modelled lock
  // waits are taken out: the pool is an accounting overlay over one global
  // clock, and the naming locks' waits are the only work it adds.
  EXPECT_GT(LockWaitCycles(smp), LockWaitCycles(uni));
  EXPECT_EQ(uni.clock - LockWaitCycles(uni), smp.clock - LockWaitCycles(smp));
}

TEST(SmpAudit, AuditAndShutdownWithPipelineKnobsAtFourCpus) {
  KernelConfig config = SmpConfig(4);
  config.paging_pipeline = PagingPipeline::Full();
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  PathWalker walker(&kernel.gates());
  std::vector<ProcessId> pids;
  for (uint32_t i = 0; i < 6; ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject(Numbered("W", i)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">work>q" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    ASSERT_TRUE(entry.ok());
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    ASSERT_TRUE(segno.ok());
    std::vector<UserOp> program;
    for (uint32_t p = 0; p < 8; ++p) {  // sequential: feeds the readahead path
      program.push_back(UserOp::Write(*segno, p * kPageWords + p, p + 1));
    }
    ASSERT_TRUE(kernel.processes().SetProgram(*pid, std::move(program)).ok());
    pids.push_back(*pid);
  }
  ASSERT_TRUE(kernel.processes().RunUntilQuiescent(1000000).ok());
  for (ProcessId pid : pids) {
    EXPECT_EQ(kernel.processes().state(pid), ProcState::kDone);
  }
  // The pipeline ran (eviction pressure guarantees cleaning activity) and the
  // cross-module books still balance with four CPUs' worth of interleaving.
  const auto findings = kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
  ASSERT_TRUE(kernel.Shutdown().ok());
  const auto post = kernel.AuditIntegrity();
  EXPECT_TRUE(post.empty()) << post.front();
}

TEST(SmpDispatch, QuantaSpreadAcrossThePool) {
  KernelConfig config = SmpConfig(4);
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  kernel.processes().set_quantum(4);  // several quanta per program
  PathWalker walker(&kernel.gates());
  for (uint32_t i = 0; i < 8; ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject(Numbered("S", i)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">work>s" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    ASSERT_TRUE(entry.ok());
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    ASSERT_TRUE(segno.ok());
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 24; ++n) {
      program.push_back(UserOp::Compute(30));
      program.push_back(UserOp::Write(*segno, (n % 3) * kPageWords, n));
    }
    ASSERT_TRUE(kernel.processes().SetProgram(*pid, std::move(program)).ok());
  }
  ASSERT_TRUE(kernel.processes().RunUntilQuiescent(1000000).ok());
  // With 8 runnable processes and 4 CPUs, least-local-time dispatch must use
  // more than the bootload CPU.
  uint32_t busy_cpus = 0;
  for (uint16_t k = 0; k < 4; ++k) {
    const std::string prefix = "smp.cpu" + std::to_string(k);
    if (kernel.metrics().Get(prefix + ".busy_cycles") > 0) {
      EXPECT_GT(kernel.metrics().Get(prefix + ".quanta"), 0u);
      ++busy_cpus;
    }
  }
  EXPECT_GE(busy_cpus, 2u);
  // Every CPU's busy time is bounded by the serialized total.
  for (uint16_t k = 0; k < 4; ++k) {
    EXPECT_LE(kernel.metrics().Get("smp.cpu" + std::to_string(k) + ".busy_cycles"),
              kernel.clock().now());
  }
}

// ---------------------------------------------------------------------------
// Hardware-level: the pool's broadcast protocol and per-CPU state.
// ---------------------------------------------------------------------------

struct PoolRig {
  Clock clock;
  CostModel cost{&clock};
  Metrics metrics;
  PageTable pt;
  DescriptorSegment ds;
  ProcessorPool pool;

  explicit PoolRig(uint16_t cpus)
      : pool(cpus,
             HwFeatures{.second_dsbr = true, .associative_entries = 16},
             &cost, &metrics) {
    pt.ptws.assign(8, Ptw{});
    ds.sdws.assign(4, Sdw{});
    Sdw& sdw = ds.sdws[0];
    sdw.present = true;
    sdw.page_table = &pt;
    sdw.bound_pages = 8;
    sdw.read = true;
    sdw.write = true;
    sdw.ring_bracket = 4;
    for (uint16_t k = 0; k < pool.count(); ++k) {
      pool.cpu(k).set_user_ds(&ds);
    }
  }

  void MapPage(uint32_t page, uint32_t frame) {
    pt.ptws[page].in_core = true;
    pt.ptws[page].unallocated = false;
    pt.ptws[page].frame = frame;
  }
};

constexpr Segno kSeg{kSystemSegnoLimit};

TEST(ProcessorPool, ZeroCpuCountClampsToOne) {
  PoolRig rig(0);
  EXPECT_EQ(rig.pool.count(), 1u);
}

TEST(ProcessorPool, BroadcastClearDropsStaleTranslationsOnEveryCpu) {
  PoolRig rig(2);
  rig.MapPage(5, 13);
  // Both CPUs cache the translation for page 5.
  ASSERT_TRUE(rig.pool.cpu(0).Access(kSeg, 5 * kPageWords, AccessMode::kRead, 4).ok);
  ASSERT_TRUE(rig.pool.cpu(1).Access(kSeg, 5 * kPageWords, AccessMode::kRead, 4).ok);
  // A descriptor mutation made while running on CPU 0 (bound shrink) must
  // reach CPU 1's cache too — the hardware "connect" signal.
  rig.ds.sdws[0].bound_pages = 4;
  rig.pool.ClearAssociative(kSeg);
  for (uint16_t k = 0; k < 2; ++k) {
    auto r = rig.pool.cpu(k).Access(kSeg, 5 * kPageWords, AccessMode::kRead, 4);
    ASSERT_FALSE(r.ok) << "cpu " << k << " served a stale translation";
    EXPECT_EQ(r.fault.kind, FaultKind::kOutOfBounds);
  }
}

TEST(ProcessorPool, BroadcastPtwInvalidationCoversEviction) {
  PoolRig rig(2);
  rig.MapPage(2, 9);
  ASSERT_TRUE(rig.pool.cpu(0).Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4).ok);
  ASSERT_TRUE(rig.pool.cpu(1).Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4).ok);
  // Page control (running on some CPU) evicts the page.
  rig.pt.ptws[2].in_core = false;
  rig.pt.ptws[2].frame = 0;
  rig.pool.InvalidateAssociative(&rig.pt.ptws[2]);
  for (uint16_t k = 0; k < 2; ++k) {
    auto r = rig.pool.cpu(k).Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.fault.kind, FaultKind::kMissingPage);
  }
}

TEST(ProcessorPool, WakeupWaitingSwitchIsPerCpu) {
  PoolRig rig(2);
  rig.pool.cpu(0).ArmWakeupWaiting();
  rig.pool.cpu(1).ArmWakeupWaiting();
  // A notification delivered to the vp bound on CPU 0 flips only that CPU's
  // switch; CPU 1's pending wait decision is unaffected.
  rig.pool.cpu(0).SetWakeupWaiting();
  EXPECT_TRUE(rig.pool.cpu(0).wakeup_waiting());
  EXPECT_FALSE(rig.pool.cpu(1).wakeup_waiting());
}

TEST(ProcessorPool, DropUserDsClearsOnlyMatchingDsbrs) {
  PoolRig rig(2);
  DescriptorSegment other;
  other.sdws.assign(1, Sdw{});
  rig.pool.cpu(1).set_user_ds(&other);
  // Tearing down the address space behind `ds` must unlatch CPU 0's DSBR but
  // leave CPU 1 (running a different space) alone.
  rig.pool.DropUserDs(&rig.ds);
  EXPECT_EQ(rig.pool.cpu(0).user_ds(), nullptr);
  EXPECT_EQ(rig.pool.cpu(1).user_ds(), &other);
}

}  // namespace
}  // namespace mks
