// P6 — the quota redesign.  In the old supervisor every segment growth
// walks UP the active segment table along the directory hierarchy to find
// the nearest superior quota directory, so the cost of a growth fault rises
// with the segment's depth below its quota directory.  The new design hands
// the segment manager a STATIC quota cell name at initiation: growth cost is
// flat in depth.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/baseline/supervisor.h"
#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace mks {
namespace {

// Average simulated cycles per growth fault at hierarchy depth `depth`.
double BaselineGrowthCost(uint32_t depth, uint32_t growths) {
  BaselineConfig config;
  config.memory_frames = 2048;
  config.records_per_pack = 8192;
  config.ast_slots = 128;
  config.retranslate_conflict_rate = 0.0;
  MonolithicSupervisor sup{config};
  if (!sup.Boot().ok()) {
    return -1;
  }
  (void)sup.SetQuota(">", 1u << 20);
  std::string path;
  for (uint32_t d = 0; d < depth; ++d) {
    path += ">d" + std::to_string(d);
  }
  auto uid = sup.CreatePath(path + ">grower");
  if (!uid.ok()) {
    return -1;
  }
  const Cycles before = sup.clock().now();
  for (uint32_t p = 0; p < growths; ++p) {
    (void)sup.Write(*uid, p * kPageWords, 1);
  }
  return static_cast<double>(sup.clock().now() - before) / growths;
}

double KernelGrowthCost(uint32_t depth, uint32_t growths) {
  KernelConfig config;
  config.memory_frames = 2048;
  config.records_per_pack = 8192;
  config.ast_slots = 128;
  Kernel kernel{ArmWatchdog(config)};
  if (!kernel.Boot().ok()) {
    return -1;
  }
  Subject user{Principal{"Bench", "Proj"}, Label::SystemLow(), 4};
  auto pid = kernel.processes().CreateProcess(user);
  if (!pid.ok()) {
    return -1;
  }
  ProcContext* ctx = kernel.processes().Context(*pid);
  PathWalker walker(&kernel.gates());
  const Acl acl = WorldAcl();
  std::string path;
  for (uint32_t d = 0; d < depth; ++d) {
    path += ">d" + std::to_string(d);
  }
  auto entry = walker.CreateSegment(*ctx, path + ">grower", acl, Label::SystemLow());
  if (!entry.ok()) {
    return -1;
  }
  auto segno = kernel.gates().Initiate(*ctx, *entry);
  if (!segno.ok()) {
    return -1;
  }
  const Cycles before = kernel.clock().now();
  for (uint32_t p = 0; p < growths; ++p) {
    (void)kernel.gates().Write(*ctx, *segno, p * kPageWords, 1);
  }
  return static_cast<double>(kernel.clock().now() - before) / growths;
}

}  // namespace
}  // namespace mks

int main() {
  using namespace mks;
  constexpr uint32_t kGrowths = 64;
  std::printf("=== P6: Quota enforcement cost vs directory depth ===\n\n");
  std::printf("cost of one growth fault (sim cycles), quota directory at the root:\n\n");
  std::printf("%8s %18s %18s\n", "depth", "baseline (walk)", "kernel (static)");
  double baseline_first = 0, baseline_last = 0, kernel_first = 0, kernel_last = 0;
  const uint32_t depths[] = {1, 2, 4, 8, 16, 32};
  for (uint32_t depth : depths) {
    const double baseline = BaselineGrowthCost(depth, kGrowths);
    const double kernel = KernelGrowthCost(depth, kGrowths);
    std::printf("%8u %18.0f %18.0f\n", depth, baseline, kernel);
    EmitJson(JsonLine("quota")
                 .Field("depth", uint64_t{depth})
                 .Field("cyc_per_growth_baseline", baseline)
                 .Field("cyc_per_growth_kernel", kernel));
    if (depth == depths[0]) {
      baseline_first = baseline;
      kernel_first = kernel;
    }
    baseline_last = baseline;
    kernel_last = kernel;
  }
  const double baseline_growth = baseline_last - baseline_first;
  const double kernel_growth = kernel_last - kernel_first;
  std::printf(
      "\nbaseline cost grows with depth (+%.0f cycles from depth 1 to 32);\n"
      "kernel cost is flat (%+.0f cycles).\n",
      baseline_growth, kernel_growth);
  const bool shape = baseline_growth > 8 * (kernel_growth < 0 ? -kernel_growth : kernel_growth) ||
                     (baseline_growth > 50 && kernel_growth < 10);
  EmitJson(JsonLine("quota_summary")
               .Field("baseline_growth_d1_to_d32", baseline_growth)
               .Field("kernel_growth_d1_to_d32", kernel_growth)
               .Field("reproduced", shape ? "yes" : "no"));
  std::printf(
      "\npaper: \"a dynamic upward search of the hierarchy to locate the\n"
      "appropriate quota directory is no longer required each time a segment\n"
      "is grown.\" -> %s\n",
      shape ? "REPRODUCED" : "MISMATCH");
  return shape ? 0 : 1;
}
