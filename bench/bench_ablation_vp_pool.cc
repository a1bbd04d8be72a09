// Ablation — sizing the fixed virtual-processor pool.  Brinch Hansen's
// simplification requires every vp state to live in the fastest memory; the
// two-level design keeps the pool small and multiplexes arbitrary user
// processes over it.  The sweep shows the throughput/memory trade: tiny
// pools serialize the workload, big pools waste permanently-resident core on
// idle state records.  The pool is the paper's uniprocessor design, so the
// kernel runs on the 1977 row of the comparator table: one ready list that
// hands each quantum to any idle vp (the modelled per-CPU queues would keep
// reusing the one CPU's own vp, and the per-vp busy estimate below would
// measure that affinity instead of the pool).
#include <cstdio>

#include "bench/bench_util.h"

namespace mks {
namespace {

struct PoolResult {
  Cycles total_cycles = 0;       // single-clock simulation total
  Cycles parallel_makespan = 0;  // max per-vp busy time: what a real
                                 // multiprocessor would wait for
  uint32_t vp_state_frames = 0;  // permanently-resident state records
};

PoolResult RunWithPool(uint16_t vp_count) {
  KernelConfig config = comparator::k1977.Apply();
  config.vp_count = vp_count;
  config.memory_frames = 256;
  Kernel kernel{config};
  PoolResult result;
  if (!kernel.Boot().ok()) {
    return result;
  }
  Subject user{Principal{"Bench", "Proj"}, Label::SystemLow(), 4};
  PathWalker walker(&kernel.gates());
  constexpr int kProcesses = 12;
  std::vector<ProcessId> pids;
  for (int i = 0; i < kProcesses; ++i) {
    auto pid = kernel.processes().CreateProcess(user);
    if (!pid.ok()) {
      return result;
    }
    pids.push_back(*pid);
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">w>p" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 80; ++n) {
      program.push_back(UserOp::Compute(25));
      if (n % 4 == 0) {
        program.push_back(UserOp::Write(*segno, (n % 6) * kPageWords, n));
      }
    }
    (void)kernel.processes().SetProgram(*pid, std::move(program));
  }
  (void)kernel.ctx().AlignToClock();
  const Cycles before = kernel.clock().now();
  (void)kernel.processes().RunUntilQuiescent(1000000);
  result.total_cycles = kernel.clock().now() - before;
  // The estimate cannot beat the per-process critical path: one process's
  // quanta are sequential no matter how many vps exist.
  Cycles critical_path = 0;
  for (ProcessId pid : pids) {
    const Cycles cpu = kernel.processes().stats(pid).cpu_cycles;
    critical_path = cpu > critical_path ? cpu : critical_path;
  }
  const Cycles busiest = kernel.vprocs().MaxBusy();
  result.parallel_makespan = busiest > critical_path ? busiest : critical_path;
  // vp_states is the first core segment allocated at boot.
  result.vp_state_frames = kernel.core_segments().SizeWords(CoreSegId(0)) / kPageWords;
  return result;
}

}  // namespace
}  // namespace mks

int main() {
  using namespace mks;
  std::printf("=== Ablation: fixed virtual-processor pool size ===\n\n");
  std::printf("12 user processes, identical work, pool swept:\n\n");
  std::printf("%8s %20s %22s %18s\n", "vps", "est. makespan (cyc)", "total work (cyc)",
              "vp states (frames)");
  for (uint16_t vps : {1, 2, 4, 8, 16, 32}) {
    const PoolResult r = RunWithPool(vps);
    std::printf("%8u %20llu %22llu %18u\n", vps, (unsigned long long)r.parallel_makespan,
                (unsigned long long)r.total_cycles, r.vp_state_frames);
  }
  std::printf(
      "\npaper: \"If the number of processes is fixed at the maximum that would\n"
      "ever be needed, valuable primary memory space would be unused at other\n"
      "times.  This combination of pressures led to the design for a two-level\n"
      "implementation of processor multiplexing.\"  The sweep shows the small\n"
      "fixed pool capturing the multiplexing benefit without the memory cost.\n");
  return 0;
}
