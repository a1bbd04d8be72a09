// P1 — the dynamic linker extraction.  Paper: "the dynamic linker ran
// somewhat slower when removed from the kernel [;] the causes were well
// understood and curable."  The extracted linker performs its first-
// reference searches through kernel gates from the user ring; the snapped
// (fast) path is equivalent in both configurations.
//
// google-benchmark measures host time per operation; the `sim_cycles`
// counter reports the simulated machine cycles per operation, which is the
// quantity the paper's statement is about.
#include <benchmark/benchmark.h>

#include "src/baseline/supervisor.h"
#include "src/fs/linker.h"
#include "bench/bench_util.h"

namespace mks {
namespace {

constexpr int kSymbols = 64;

void BM_BaselineInKernelSnap(benchmark::State& state) {
  MonolithicSupervisor sup{BaselineConfig{}};
  (void)sup.Boot();
  auto pid = sup.CreateProcess();
  for (int i = 0; i < kSymbols; ++i) {
    (void)sup.CreatePath(">lib>sym" + std::to_string(i));
  }
  Cycles cycles = 0;
  int i = 0;
  for (auto _ : state) {
    const std::string symbol = "sym" + std::to_string(i % kSymbols);
    const bool first = i < kSymbols;
    const Cycles before = sup.clock().now();
    auto r = sup.LinkSnap(*pid, symbol, ">lib>" + symbol);
    benchmark::DoNotOptimize(r);
    cycles += sup.clock().now() - before;
    (void)first;
    ++i;
  }
  state.counters["sim_cycles"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BaselineInKernelSnap)->Arg(0);

void BM_ExtractedUserRingSnap(benchmark::State& state) {
  BenchKernel fx;
  PathWalker walker(&fx.kernel.gates());
  ReferenceNameManager names(&fx.kernel.ctx());
  DynamicLinker linker(&fx.kernel.ctx(), &fx.kernel.gates(), &walker, &names);
  for (int i = 0; i < kSymbols; ++i) {
    (void)walker.CreateSegment(*fx.ctx, ">lib>sym" + std::to_string(i), WorldAcl(),
                               Label::SystemLow());
  }
  linker.AddSearchDir(fx.pid, ">lib");
  Cycles cycles = 0;
  int i = 0;
  for (auto _ : state) {
    const std::string symbol = "sym" + std::to_string(i % kSymbols);
    const Cycles before = fx.kernel.clock().now();
    auto r = linker.Snap(*fx.ctx, symbol);
    benchmark::DoNotOptimize(r);
    cycles += fx.kernel.clock().now() - before;
    ++i;
  }
  state.counters["sim_cycles"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExtractedUserRingSnap)->Arg(0);

// First-reference cost only (the path the extraction made slower).
void BM_BaselineFirstReference(benchmark::State& state) {
  MonolithicSupervisor sup{BaselineConfig{}};
  (void)sup.Boot();
  auto pid = sup.CreateProcess();
  int i = 0;
  Cycles cycles = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string symbol = Numbered("s", i++);
    (void)sup.CreatePath(">lib>" + symbol);
    state.ResumeTiming();
    const Cycles before = sup.clock().now();
    benchmark::DoNotOptimize(sup.LinkSnap(*pid, symbol, ">lib>" + symbol));
    cycles += sup.clock().now() - before;
  }
  state.counters["sim_cycles"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BaselineFirstReference)->Iterations(256);

void BM_ExtractedFirstReference(benchmark::State& state) {
  BenchKernel fx;
  PathWalker walker(&fx.kernel.gates());
  ReferenceNameManager names(&fx.kernel.ctx());
  DynamicLinker linker(&fx.kernel.ctx(), &fx.kernel.gates(), &walker, &names);
  linker.AddSearchDir(fx.pid, ">lib");
  int i = 0;
  Cycles cycles = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string symbol = Numbered("s", i++);
    (void)walker.CreateSegment(*fx.ctx, ">lib>" + symbol, WorldAcl(), Label::SystemLow());
    state.ResumeTiming();
    const Cycles before = fx.kernel.clock().now();
    benchmark::DoNotOptimize(linker.Snap(*fx.ctx, symbol));
    cycles += fx.kernel.clock().now() - before;
  }
  state.counters["sim_cycles"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExtractedFirstReference)->Iterations(256);

// Deterministic sim-cycle runs for the JSON summary: google-benchmark's
// counters report per-host-run averages on stdout, but the machine-readable
// line wants the simulated cycles the paper's claim is about, measured once.
struct LinkerSimCycles {
  double snap_baseline = 0;
  double snap_extracted = 0;
  double first_ref_baseline = 0;
  double first_ref_extracted = 0;
};

LinkerSimCycles MeasureSimCycles(int snap_iters, int first_refs) {
  LinkerSimCycles r;
  {
    MonolithicSupervisor sup{BaselineConfig{}};
    (void)sup.Boot();
    auto pid = sup.CreateProcess();
    for (int i = 0; i < kSymbols; ++i) {
      (void)sup.CreatePath(">lib>sym" + std::to_string(i));
      (void)sup.LinkSnap(*pid, "sym" + std::to_string(i), ">lib>sym" + std::to_string(i));
    }
    const Cycles before = sup.clock().now();
    for (int i = 0; i < snap_iters; ++i) {
      const std::string symbol = "sym" + std::to_string(i % kSymbols);
      (void)sup.LinkSnap(*pid, symbol, ">lib>" + symbol);
    }
    r.snap_baseline = static_cast<double>(sup.clock().now() - before) / snap_iters;
    Cycles first = 0;
    for (int i = 0; i < first_refs; ++i) {
      const std::string symbol = Numbered("f", i);
      (void)sup.CreatePath(">lib>" + symbol);
      const Cycles b2 = sup.clock().now();
      (void)sup.LinkSnap(*pid, symbol, ">lib>" + symbol);
      first += sup.clock().now() - b2;
    }
    r.first_ref_baseline = static_cast<double>(first) / first_refs;
  }
  {
    BenchKernel fx;
    PathWalker walker(&fx.kernel.gates());
    ReferenceNameManager names(&fx.kernel.ctx());
    DynamicLinker linker(&fx.kernel.ctx(), &fx.kernel.gates(), &walker, &names);
    linker.AddSearchDir(fx.pid, ">lib");
    for (int i = 0; i < kSymbols; ++i) {
      (void)walker.CreateSegment(*fx.ctx, ">lib>sym" + std::to_string(i), WorldAcl(),
                                 Label::SystemLow());
      (void)linker.Snap(*fx.ctx, "sym" + std::to_string(i));
    }
    const Cycles before = fx.kernel.clock().now();
    for (int i = 0; i < snap_iters; ++i) {
      (void)linker.Snap(*fx.ctx, "sym" + std::to_string(i % kSymbols));
    }
    r.snap_extracted = static_cast<double>(fx.kernel.clock().now() - before) / snap_iters;
    Cycles first = 0;
    for (int i = 0; i < first_refs; ++i) {
      const std::string symbol = Numbered("f", i);
      (void)walker.CreateSegment(*fx.ctx, ">lib>" + symbol, WorldAcl(), Label::SystemLow());
      const Cycles b2 = fx.kernel.clock().now();
      (void)linker.Snap(*fx.ctx, symbol);
      first += fx.kernel.clock().now() - b2;
    }
    r.first_ref_extracted = static_cast<double>(first) / first_refs;
  }
  return r;
}

}  // namespace
}  // namespace mks

int main(int argc, char** argv) {
  using namespace mks;
  std::printf(
      "P1 -- linker extraction.  Paper: extracted linker \"ran somewhat slower\";\n"
      "expect ExtractedFirstReference sim_cycles moderately above\n"
      "BaselineFirstReference, and the snapped fast paths comparable.\n\n");
  const LinkerSimCycles sim = MeasureSimCycles(/*snap_iters=*/512, /*first_refs=*/128);
  EmitJson(JsonLine("linker")
               .Field("cyc_snap_baseline", sim.snap_baseline)
               .Field("cyc_snap_extracted", sim.snap_extracted)
               .Field("cyc_first_ref_baseline", sim.first_ref_baseline)
               .Field("cyc_first_ref_extracted", sim.first_ref_extracted)
               .Field("first_ref_ratio", sim.first_ref_extracted / sim.first_ref_baseline));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
