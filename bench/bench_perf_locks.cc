// P15 — the scalable-lock suite: measured collapse curves for the
// Mellor-Crummey & Scott progression (test-and-set -> ticket -> Anderson
// array -> MCS queue) on the two most lock-bound workloads in the repo.
//
// Who gets the lock next never changes across policies — the serialized
// virtual-time simulation grants in a fixed total order — so every row runs
// the *identical schedule* and the curves differ only by the interconnect
// traffic a contended handoff generates:
//
//   tas      — the traffic-blind model of P11/P13: waiting burns the gap,
//              line bouncing is free.  Upper bound for the other curves.
//   ticket   — every release invalidates the shared now_serving line in
//              every waiter's cache: a waiter that sat through k handoffs
//              pays k line transfers (the O(waiters) broadcast).
//   anderson — per-waiter spin slots in a static array: one line transfer
//              per handoff, however deep the queue.  Array sized to the
//              pool; over-subscription aborts loudly.
//   mcs      — per-waiter queue nodes: the same O(1) handoff charge with no
//              array bound.
//
// Two workloads:
//   fault_storm  — P11's baseline fault storm scaled to the pool (16
//                  processes x 12 pages > 64 frames, every touch faults and
//                  serializes behind the supervisor's one global lock);
//   mixed_pinned — P13's dispatch-rate-bound kernel mix (quantum 2, four
//                  paged readers pinned to CPUs {0,1}, four compute
//                  processes pinned to {2,3}) on the legacy global ready
//                  list at connect cost 800, so every quantum bounces and
//                  locks the one list line.
//
// The headline number is the 16-CPU separation: ticket's per-waiter
// broadcast grows with the pool while Anderson/MCS stay at one transfer per
// handoff, so the queue locks must sustain strictly higher speedup than the
// ticket lock.  A bit-identical double-run self-check guards determinism.
//
// Usage: bench_perf_locks [--smoke]
//   --smoke: cpus {1,4}, one storm round, tiny mix; skips the 16-CPU
//            verdict but keeps the double-run self-check; always exits 0.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/baseline/supervisor.h"
#include "src/kernel/kernel.h"

namespace mks {
namespace {

constexpr LockPolicy kPolicies[] = {LockPolicy::kTestAndSet, LockPolicy::kTicket,
                                    LockPolicy::kAnderson, LockPolicy::kMcs};

struct LockResult {
  Cycles total = 0;
  Cycles makespan = 0;
  uint64_t acquisitions = 0;
  uint64_t contended = 0;
  Cycles spin_cycles = 0;
  uint64_t handoffs = 0;
  Cycles handoff_cycles = 0;
  uint64_t max_queue_depth = 0;
  bool ok = false;

  bool BitIdentical(const LockResult& other) const {
    return total == other.total && makespan == other.makespan &&
           acquisitions == other.acquisitions && contended == other.contended &&
           spin_cycles == other.spin_cycles && handoffs == other.handoffs &&
           handoff_cycles == other.handoff_cycles &&
           max_queue_depth == other.max_queue_depth;
  }
};

// P11's fault storm on the baseline supervisor, scaled so a 16-CPU pool has
// a process per CPU: every read misses (working sets sum to 3x the frame
// pool) and serializes behind the global lock under the selected policy.
LockResult MeasureStorm(LockPolicy policy, uint16_t cpus, uint32_t rounds) {
  LockResult out;
  BaselineConfig config;
  config.memory_frames = 64;
  config.records_per_pack = 8192;
  config.cpu_count = cpus;
  config.lock_policy = policy;
  config.lock_transfer_cost = 400;
  MonolithicSupervisor sup{config};
  const workload::Shape storm{.kind = workload::Kind::kPrivateSweep,
                              .processes = 16,
                              .pages = 12,
                              .rounds = rounds};
  if (!sup.Boot().ok() || !workload::Build(sup, storm).ok) {
    return out;
  }
  const workload::Region region = workload::Measure(sup, 1000000);
  if (!region.ok) {
    return out;
  }
  out.total = region.total;
  out.makespan = region.makespan;
  out.acquisitions = sup.global_lock_acquisitions();
  out.contended = sup.global_lock_contended();
  out.spin_cycles = sup.global_lock_spin_cycles();
  out.handoffs = sup.global_lock_handoffs();
  out.handoff_cycles = sup.global_lock_handoff_cycles();
  out.max_queue_depth = sup.global_lock_max_queue_depth();
  out.ok = true;
  return out;
}

// P13's mixed pinned workload on the kernel's global ready list (the
// global-dispatch row of the comparator table): quantum 2 makes dispatch
// the bottleneck, and at connect cost 800 every dispatch locks and bounces
// the one list line under the selected policy.
LockResult MeasureMixed(LockPolicy policy, uint16_t cpus, uint32_t ops) {
  LockResult out;
  KernelConfig config = comparator::kGlobalDispatch.Apply();
  config.memory_frames = 256;
  config.records_per_pack = 8192;
  config.cpu_count = cpus;
  config.vp_count = 6;
  config.connect_cost = 800;
  config.lock_policy = policy;
  Kernel kernel{ArmWatchdog(config)};
  if (!kernel.Boot().ok() || !workload::Build(kernel, workload::PinnedMix(ops)).ok) {
    return out;
  }
  const workload::Region region = workload::Measure(kernel, 1000000);
  if (!region.ok) {
    return out;
  }
  out.total = region.total;
  out.makespan = region.makespan;
  const SimSpinLock& lock = kernel.processes().list_lock();
  out.acquisitions = lock.acquisitions();
  out.contended = lock.contended();
  out.spin_cycles = lock.total_spin();
  out.handoffs = lock.handoffs();
  out.handoff_cycles = lock.handoff_cycles();
  out.max_queue_depth = lock.max_queue_depth();
  out.ok = true;
  return out;
}

}  // namespace
}  // namespace mks

int main(int argc, char** argv) {
  using namespace mks;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const std::vector<uint16_t> cpu_counts =
      smoke ? std::vector<uint16_t>{1, 4} : std::vector<uint16_t>{1, 2, 4, 8, 16};
  const uint32_t storm_rounds = smoke ? 1 : 2;
  const uint32_t mix_ops = smoke ? 24 : 120;
  const uint16_t max_cpus = cpu_counts.back();

  std::printf("=== P15: lock-policy collapse curves (tas / ticket / anderson / mcs) ===\n\n");
  // verdict inputs: speedup per policy at the deepest pool, per workload.
  double ticket_speedup[2] = {0, 0};
  double anderson_speedup[2] = {0, 0};
  double mcs_speedup[2] = {0, 0};
  for (int wi = 0; wi < 2; ++wi) {
    const bool storm = wi == 0;
    const char* workload = storm ? "fault_storm" : "mixed_pinned";
    std::printf("%s (%s):\n%10s %5s %12s %12s %9s %11s %14s %7s\n", workload,
                storm ? "baseline global lock" : "kernel global ready list", "policy", "cpus",
                "makespan", "total", "speedup", "spin share", "handoff cyc", "depth");
    for (LockPolicy policy : kPolicies) {
      Cycles m1 = 0;
      for (uint16_t cpus : cpu_counts) {
        const LockResult r = storm ? MeasureStorm(policy, cpus, storm_rounds)
                                   : MeasureMixed(policy, cpus, mix_ops);
        if (!r.ok) {
          std::fprintf(stderr, "run failed (%s, %s, %u cpus)\n", workload,
                       LockPolicyName(policy), cpus);
          return 1;
        }
        if (cpus == 1) {
          m1 = r.makespan;
        }
        const double speedup = static_cast<double>(m1) / r.makespan;
        const double spin_share =
            r.total == 0 ? 0 : static_cast<double>(r.spin_cycles) / r.total;
        std::printf("%10s %5u %12llu %12llu %8.2fx %10.1f%% %14llu %7llu\n",
                    LockPolicyName(policy), cpus, (unsigned long long)r.makespan,
                    (unsigned long long)r.total, speedup, spin_share * 100,
                    (unsigned long long)r.handoff_cycles,
                    (unsigned long long)r.max_queue_depth);
        JsonLine line("locks");
        line.Field("workload", workload)
            .Field("policy", LockPolicyName(policy))
            .Field("cpus", uint64_t{cpus})
            .Field("makespan", r.makespan)
            .Field("total_cycles", r.total)
            .Field("speedup_vs_1cpu", speedup)
            .Field("lock_acquisitions", r.acquisitions)
            .Field("lock_contended", r.contended)
            .Field("lock_spin_cycles", r.spin_cycles)
            .Field("spin_share", spin_share)
            .Field("lock_handoffs", r.handoffs)
            .Field("lock_handoff_cycles", r.handoff_cycles)
            .Field("lock_max_queue_depth", r.max_queue_depth);
        EmitJson(line);
        if (cpus == max_cpus) {
          if (policy == LockPolicy::kTicket) {
            ticket_speedup[wi] = speedup;
          } else if (policy == LockPolicy::kAnderson) {
            anderson_speedup[wi] = speedup;
          } else if (policy == LockPolicy::kMcs) {
            mcs_speedup[wi] = speedup;
          }
        }
      }
    }
    std::printf("\n");
  }

  // Determinism self-check: the heaviest configuration of each workload,
  // twice, must match on every counter bit-for-bit.
  {
    const LockResult a = MeasureStorm(LockPolicy::kMcs, max_cpus, storm_rounds);
    const LockResult b = MeasureStorm(LockPolicy::kMcs, max_cpus, storm_rounds);
    const LockResult c = MeasureMixed(LockPolicy::kAnderson, max_cpus, mix_ops);
    const LockResult d = MeasureMixed(LockPolicy::kAnderson, max_cpus, mix_ops);
    if (!a.ok || !b.ok || !c.ok || !d.ok || !a.BitIdentical(b) || !c.BitIdentical(d)) {
      std::fprintf(stderr, "DETERMINISM FAILURE: double-run results differ\n");
      return 1;
    }
    std::printf("double-run self-check: bit-identical (storm/mcs and mixed/anderson at %u CPUs)\n",
                max_cpus);
  }

  if (smoke) {
    std::printf("smoke run complete\n");
    return 0;
  }
  bool separated = true;
  for (int wi = 0; wi < 2; ++wi) {
    const bool ok =
        anderson_speedup[wi] > ticket_speedup[wi] && mcs_speedup[wi] > ticket_speedup[wi];
    std::printf("%s at %u CPUs: anderson %.4fx / mcs %.4fx vs ticket %.4fx: %s\n",
                wi == 0 ? "fault_storm" : "mixed_pinned", max_cpus, anderson_speedup[wi],
                mcs_speedup[wi], ticket_speedup[wi], ok ? "queue locks win" : "NO");
    separated = separated && ok;
  }
  std::printf("\nper-waiter spin lines make a contended handoff one line transfer instead\n"
              "of a broadcast to every waiter -> %s\n",
              separated ? "REPRODUCED" : "MISMATCH");
  return separated ? 0 : 1;
}
