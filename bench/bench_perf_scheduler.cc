// P5 — the two-level process implementation.  Paper: "a structure which in
// the past has not yielded good system performance although no one to our
// knowledge has been willing to claim such a failure in print. ... we are
// confident that the combination of the layers will have a performance about
// the same as the current system."
//
// The bench runs the same multiprogrammed workload through the baseline
// one-level process control (states in pageable segments, dispatch can
// itself fault) and the new two-level design (fixed vp pool + user process
// scheduler with the real-memory queue), and compares simulated cycles.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/baseline/supervisor.h"
#include "src/kernel/kernel.h"

namespace mks {
namespace {

constexpr int kProcesses = 8;
constexpr uint32_t kOpsPerProcess = 120;

// Compute every third op, paged writes over 6 pages otherwise.
constexpr workload::Shape kMix{.kind = workload::Kind::kComputeWrite,
                               .processes = kProcesses,
                               .pages = 6,
                               .ops = kOpsPerProcess,
                               .populate = false};

Cycles RunBaseline() {
  BaselineConfig config;
  config.memory_frames = 256;
  config.records_per_pack = 8192;
  MonolithicSupervisor sup{config};
  if (!sup.Boot().ok() || !workload::Build(sup, kMix).ok) {
    return 0;
  }
  return workload::Measure(sup, 100000).total;
}

Cycles RunKernel() {
  KernelConfig config;
  config.memory_frames = 256;
  config.records_per_pack = 8192;
  config.vp_count = 6;  // 8 processes multiplexed over a smaller fixed pool
  Kernel kernel{ArmWatchdog(config)};
  if (!kernel.Boot().ok() || !workload::Build(kernel, kMix).ok) {
    return 0;
  }
  return workload::Measure(kernel, 1000000).total;
}

}  // namespace
}  // namespace mks

int main() {
  using namespace mks;
  std::printf("=== P5: One-level vs two-level process multiplexing ===\n\n");
  const Cycles baseline = RunBaseline();
  const Cycles kernel = RunKernel();
  const double total_ops = static_cast<double>(kProcesses) * kOpsPerProcess;
  const double b = static_cast<double>(baseline) / total_ops;
  const double k = static_cast<double>(kernel) / total_ops;
  std::printf("%d processes x %u ops (compute + paged writes):\n", kProcesses, kOpsPerProcess);
  std::printf("  one-level (baseline):  %10.0f sim cycles/op\n", b);
  std::printf("  two-level (new design): %9.0f sim cycles/op\n", k);
  std::printf("  ratio: %.2fx\n\n", k / b);
  const bool shape = k / b > 0.6 && k / b < 1.8;
  EmitJson(JsonLine("scheduler")
               .Field("processes", uint64_t{kProcesses})
               .Field("ops_per_process", uint64_t{kOpsPerProcess})
               .Field("cyc_per_op_baseline", b)
               .Field("cyc_per_op_kernel", k)
               .Field("ratio", k / b)
               .Field("reproduced", shape ? "yes" : "no"));
  std::printf(
      "paper: \"confident that the combination of the layers will have a\n"
      "performance about the same as the current system\" (claim marked\n"
      "speculative).  ratio within [0.6, 1.8]: %s\n",
      shape ? "REPRODUCED" : "MISMATCH");
  return shape ? 0 : 1;
}
