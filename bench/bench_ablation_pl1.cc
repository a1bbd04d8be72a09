// Ablation — the "exclusive use of PL/I" tradeoff.  Recoding the kernel's
// assembly in a higher-level language buys 8K source lines of auditability
// and costs roughly a factor of two in generated instructions on the
// recoded paths [Huber, 1976].  This bench sweeps the structured-code factor
// and shows where the cost lands: concentrated in fault handling, diluted in
// end-to-end workloads.
#include <cstdio>

#include "bench/bench_util.h"

namespace mks {
namespace {

struct Sample {
  double growth_cost;      // handler-bound: quota exception + grow, no device
  double paged_read_cost;  // latency-bound: disk transfer dominates
};

Sample RunWorkload(double factor) {
  Sample sample{};
  {
    // Handler-bound path: first-touch growth faults with ample memory.
    KernelConfig config;
    config.memory_frames = 512;
    config.structured_factor = factor;
    BenchKernel fx{config};
    PathWalker walker(&fx.kernel.gates());
    auto entry = walker.CreateSegment(*fx.ctx, ">data>grow", WorldAcl(),
                                      Label::SystemLow());
    auto segno = fx.kernel.gates().Initiate(*fx.ctx, *entry);
    constexpr uint32_t kGrowths = 128;
    const Cycles before = fx.kernel.clock().now();
    for (uint32_t p = 0; p < kGrowths; ++p) {
      (void)fx.kernel.gates().Write(*fx.ctx, *segno, p * kPageWords, p + 1);
    }
    sample.growth_cost =
        static_cast<double>(fx.kernel.clock().now() - before) / kGrowths;
  }
  {
    // Latency-bound path: cyclic reads over more pages than memory holds.
    KernelConfig config;
    config.memory_frames = 64;
    config.structured_factor = factor;
    BenchKernel fx{config};
    PathWalker walker(&fx.kernel.gates());
    auto entry = walker.CreateSegment(*fx.ctx, ">data>sweep", WorldAcl(),
                                      Label::SystemLow());
    auto segno = fx.kernel.gates().Initiate(*fx.ctx, *entry);
    constexpr uint32_t kPages = 96;
    constexpr uint32_t kRounds = 4;
    for (uint32_t p = 0; p < kPages; ++p) {
      (void)fx.kernel.gates().Write(*fx.ctx, *segno, p * kPageWords, p + 1);
    }
    const Cycles before = fx.kernel.clock().now();
    for (uint32_t r = 0; r < kRounds; ++r) {
      for (uint32_t p = 0; p < kPages; ++p) {
        (void)fx.kernel.gates().Read(*fx.ctx, *segno, p * kPageWords);
      }
    }
    sample.paged_read_cost =
        static_cast<double>(fx.kernel.clock().now() - before) / (kPages * kRounds);
  }
  return sample;
}

}  // namespace
}  // namespace mks

int main() {
  using namespace mks;
  std::printf("=== Ablation: the PL/I recoding factor ===\n\n");
  std::printf("%12s %22s %24s\n", "factor", "growth fault (cyc)", "paged read (cyc)");
  Sample at_1{}, at_3{};
  for (double factor : {1.0, 1.5, 2.1, 3.0}) {
    const Sample s = RunWorkload(factor);
    std::printf("%12.1f %22.0f %24.0f\n", factor, s.growth_cost, s.paged_read_cost);
    if (factor == 1.0) {
      at_1 = s;
    }
    if (factor == 3.0) {
      at_3 = s;
    }
  }
  std::printf(
      "\n1.0x -> 3.0x code expansion: growth fault +%.0f%%, paged read +%.1f%%.\n"
      "The expansion hits only the kernel's own instructions; device latency\n"
      "is untouched.  That is why the paper could accept the ~2x code-path\n"
      "factor for an 8K-line auditability gain — \"not significant unless the\n"
      "system were cramped for memory and thrashing\".\n",
      100.0 * (at_3.growth_cost / at_1.growth_cost - 1.0),
      100.0 * (at_3.paged_read_cost / at_1.paged_read_cost - 1.0));
  return 0;
}
