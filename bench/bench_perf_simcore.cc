// P14 — simulator-core host throughput.  Unlike every other bench, the
// number here is about the *simulator*, not the simulated designs: how many
// simulated cycles the core executes per host second.  The figure is tracked
// in BENCH_pr6.json like any result so regressions of the hot path (CPU
// selection, the posted-read FIFO, lazy page fill) show up in review.
//
// Three workloads:
//   fault_storm       — the P11 kernel fault storm at 4 CPUs, scaled up by
//                       rounds so the measurement is dominated by steady-state
//                       faulting; pages synchronously;
//   fault_storm_async — the same storm with asynchronous paging and the full
//                       paging pipeline: reads complete through the page-I/O
//                       daemon and the readahead dispatch rounds;
//   answering         — the P3 login/logout dialog at answering-service scale
//                       (512 users).
// The storm rows also report host_ns_per_ref, the measured region's host
// nanoseconds per simulated reference (hw.translations): host cost
// normalised to work done.  Every workload runs on the 1977 row of the
// comparator table (the answering storm with the seed service), the machine
// P14 has tracked since it began: the figure is a time series of the
// simulator's speed, so its workload stays fixed while the modelled default
// moves.  perfbench measures the host cost of the modelled machine.
//
// A double-run determinism self-check guards the refactor contract: the same
// configuration run twice must produce byte-identical counter snapshots and
// trace exports (host-side optimizations must never leak into virtual time).
//
// Usage: bench_perf_simcore [--smoke]
//   --smoke: small rounds/users, for CI; the throughput fields are still
//            emitted but only advisory at that scale.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/answering/service.h"
#include "src/kernel/kernel.h"

namespace mks {
namespace {

struct CoreRun {
  Cycles sim_cycles = 0;   // cycles advanced during the measured region
  double host_ms = 0;      // wall time of the measured region
  uint64_t refs = 0;       // hw.translations made during the measured region
  std::map<std::string, uint64_t, std::less<>> counters;
  std::string trace_json;  // empty when tracing is off
  bool ok = false;

  double CyclesPerHostSec() const {
    return host_ms <= 0 ? 0 : static_cast<double>(sim_cycles) / (host_ms / 1e3);
  }
  double HostNsPerRef() const {
    return refs == 0 ? 0 : host_ms * 1e6 / static_cast<double>(refs);
  }
};

// The P11 fault storm, kernel supervisor: 4 processes x 24 pages > 64
// frames, so every touch faults.  `rounds` scales the sweep count.  `async`
// pages through the page-I/O daemon with the full paging pipeline.
CoreRun MeasureFaultStorm(uint16_t cpus, uint32_t rounds, bool trace, bool async = false) {
  CoreRun out;
  KernelConfig config = comparator::k1977.Apply();
  config.memory_frames = 64;
  config.records_per_pack = 8192;
  config.cpu_count = cpus;
  config.vp_count = 6;
  config.trace.enabled = trace;
  if (async) {
    config.async_paging = true;
    config.paging_pipeline = PagingPipeline::Full();
  }
  Kernel kernel{ArmWatchdog(config)};
  if (!kernel.Boot().ok() || !workload::Build(kernel, workload::FaultStorm(rounds)).ok) {
    return out;
  }
  const Cycles before = Clock::total_advanced();
  const uint64_t refs_before = kernel.metrics().Get("hw.translations");
  const auto t0 = std::chrono::steady_clock::now();
  if (!workload::Measure(kernel, 4000000000ULL).ok) {
    return out;
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.sim_cycles = Clock::total_advanced() - before;
  out.host_ms =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() / 1e6;
  out.refs = kernel.metrics().Get("hw.translations") - refs_before;
  out.counters = kernel.metrics().counters();
  if (trace) {
    out.trace_json = TraceExporter::Export(kernel.ctx().trace);
  }
  out.ok = true;
  return out;
}

// The P3 login/logout dialog at answering-service scale, user domain.
CoreRun RunAnsweringStorm(int users) {
  CoreRun out;
  Kernel kernel{ArmWatchdog(comparator::k1977.Apply())};
  if (!kernel.Boot().ok()) {
    return out;
  }
  Authenticator auth(&kernel);
  if (!auth.Init().ok()) {
    return out;
  }
  AnsweringService service(&kernel, &auth, ServiceDomain::kUserDomain,
                           comparator::kSerialService);
  for (int u = 0; u < users; ++u) {
    (void)auth.Enroll(Principal{"User" + std::to_string(u), "Proj"}, "pw" + std::to_string(u),
                      Label(2, 0));
  }
  const Cycles before = Clock::total_advanced();
  const auto t0 = std::chrono::steady_clock::now();
  for (int u = 0; u < users; ++u) {
    auto pid = service.Login(Principal{"User" + std::to_string(u), "Proj"},
                             "pw" + std::to_string(u), Label(0, 0));
    if (!pid.ok()) {
      return out;
    }
    (void)service.Logout(*pid);
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.sim_cycles = Clock::total_advanced() - before;
  out.host_ms =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() / 1e6;
  out.counters = kernel.metrics().counters();
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
  const uint32_t rounds = smoke ? 50 : 2000;
  const int users = smoke ? 64 : 512;

  std::printf("=== P14: simulator-core host throughput ===\n\n");

  // Determinism self-check first (small, traced): identical virtual-time
  // output across two runs is the contract every host optimization rides on.
  const CoreRun d1 = MeasureFaultStorm(4, 4, /*trace=*/true);
  const CoreRun d2 = MeasureFaultStorm(4, 4, /*trace=*/true);
  const CoreRun a1 = MeasureFaultStorm(4, 4, /*trace=*/true, /*async=*/true);
  const CoreRun a2 = MeasureFaultStorm(4, 4, /*trace=*/true, /*async=*/true);
  if (!d1.ok || !d2.ok || !a1.ok || !a2.ok) {
    std::fprintf(stderr, "determinism check run failed\n");
    return 1;
  }
  const bool deterministic = d1.counters == d2.counters && d1.trace_json == d2.trace_json &&
                             a1.counters == a2.counters && a1.trace_json == a2.trace_json;
  std::printf("double-run determinism (counters + trace export): %s\n\n",
              deterministic ? "byte-identical" : "MISMATCH");

  const CoreRun storm = MeasureFaultStorm(4, rounds, /*trace=*/false);
  if (!storm.ok) {
    std::fprintf(stderr, "fault storm failed\n");
    return 1;
  }
  std::printf("fault_storm (P11 shape, 4 cpus, %u rounds):\n", rounds);
  std::printf("  %llu sim cycles in %.1f host ms -> %.3g cycles/host-sec\n\n",
              (unsigned long long)storm.sim_cycles, storm.host_ms, storm.CyclesPerHostSec());
  EmitJson(JsonLine("simcore")
               .Field("workload", "fault_storm")
               .Field("cpus", uint64_t{4})
               .Field("rounds", uint64_t{rounds})
               .Field("sim_cycles", storm.sim_cycles)
               .Field("host_ms", storm.host_ms)
               .Field("cyc_per_host_sec", storm.CyclesPerHostSec())
               .Field("deterministic", deterministic ? "yes" : "no")
               .Field("host_ns_per_ref", storm.HostNsPerRef()));

  const CoreRun async_storm = MeasureFaultStorm(4, rounds, /*trace=*/false, /*async=*/true);
  if (!async_storm.ok) {
    std::fprintf(stderr, "async fault storm failed\n");
    return 1;
  }
  std::printf("fault_storm_async (P11 shape, async paging + full pipeline, %u rounds):\n",
              rounds);
  std::printf("  %llu sim cycles in %.1f host ms -> %.3g cycles/host-sec, %.1f host ns/ref\n\n",
              (unsigned long long)async_storm.sim_cycles, async_storm.host_ms,
              async_storm.CyclesPerHostSec(), async_storm.HostNsPerRef());
  EmitJson(JsonLine("simcore")
               .Field("workload", "fault_storm_async")
               .Field("cpus", uint64_t{4})
               .Field("rounds", uint64_t{rounds})
               .Field("sim_cycles", async_storm.sim_cycles)
               .Field("refs", async_storm.refs)
               .Field("host_ms", async_storm.host_ms)
               .Field("cyc_per_host_sec", async_storm.CyclesPerHostSec())
               .Field("host_ns_per_ref", async_storm.HostNsPerRef()));

  const CoreRun answering = RunAnsweringStorm(users);
  if (!answering.ok) {
    std::fprintf(stderr, "answering storm failed\n");
    return 1;
  }
  std::printf("answering (user domain, %d users x login+logout):\n", users);
  std::printf("  %llu sim cycles in %.1f host ms -> %.3g cycles/host-sec\n\n",
              (unsigned long long)answering.sim_cycles, answering.host_ms,
              answering.CyclesPerHostSec());
  EmitJson(JsonLine("simcore")
               .Field("workload", "answering")
               .Field("users", static_cast<uint64_t>(users))
               .Field("sim_cycles", answering.sim_cycles)
               .Field("host_ms", answering.host_ms)
               .Field("cyc_per_host_sec", answering.CyclesPerHostSec()));

  if (!deterministic) {
    std::printf("determinism contract violated\n");
    return 1;
  }
  std::printf("simulator core: deterministic, throughput tracked\n");
  return 0;
}
