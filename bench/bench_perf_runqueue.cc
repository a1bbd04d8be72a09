// P13 — sharded per-CPU run queues vs the global ready list, under a charged
// interconnect.  PR 5's dispatch refactor shards the level-2 ready list into
// per-CPU queues (own SimSpinLock each) with deterministic work stealing and
// optional affinity masks; KernelConfig::connect_cost prices every touch of
// scheduler state from a CPU other than its cache line's last owner.
//
// The sweep crosses dispatch mode (global list / sharded / sharded+steal)
// with connect cost {0, 200, 800} and CPU pool {1, 2, 4} over two workloads:
//
//   fault_storm  — P11's kernel fault storm, byte-for-byte the same work
//                  (4 processes x 24 pages > 64 frames, 4 sweep rounds), so
//                  the mode-vs-mode deltas ride on a known baseline;
//   mixed_pinned — a dispatch-rate-bound mix at quantum 2: four paged
//                  readers pinned to CPUs {0,1} and four compute processes
//                  pinned to CPUs {2,3} (pins apply where the mask
//                  intersects the pool), so the global list bounces between
//                  the two halves every quantum while sharded queues keep
//                  each half's traffic local.
//
// The modes are rows of the comparator table (bench/workload.h): global
// dispatch, sharded without stealing, and the modelled default (sharded with
// stealing); the connect cost is the swept knob.  At cost 0 no scheduler
// structure charges traffic; the interesting rows are cost > 0, where the
// global list pays a line transfer plus the lock-held dispatch window per
// quantum and the sharded queues pay only for steals and cross-CPU
// re-homes.  Every mode models the naming locks, so each row also reports
// the cycles spent waiting on them: on the paging-bound storm those waits,
// not dispatch, set the makespan.
//
// Usage: bench_perf_runqueue [--smoke] [--trace] [--profile]
//   --smoke: tiny sweep (1 round, cpus {1,4}, costs {0,800}) with the tracer
//            on; exports bench_perf_runqueue.trace.json; always exits 0
//   --trace: enable the tracer in the full sweep (steal spans, queue-depth
//            histograms, per-queue lock spin) and export the 4-CPU max-cost
//            sharded+steal fault storm as bench_perf_runqueue.trace.json;
//            result lines gain `trace_dropped` and each traced run emits a
//            `runqueue_hist` line with every populated histogram
//   --profile: enable the cycle-accounting profiler; each run prints a
//            top-domain breakdown table and emits a `runqueue_prof` JSON
//            line; the sharded+steal 4-CPU max-cost fault storm exports
//            bench_perf_runqueue.prof.folded (flamegraph collapsed stacks)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/kernel/kernel.h"

namespace mks {
namespace {

struct Mode {
  const char* name;
  const comparator::KernelRow* row;
};

constexpr Mode kModes[] = {
    {"global", &comparator::kGlobalDispatch},
    {"sharded", &comparator::kStealOff},
    {"sharded_steal", &comparator::kModelled},
};

struct RqResult {
  Cycles total = 0;
  Cycles makespan = 0;
  uint64_t steals = 0;
  uint64_t transfers = 0;
  uint64_t rq_lock_spin_cycles = 0;
  uint64_t list_transfers = 0;
  uint64_t list_lock_spin_cycles = 0;
  uint64_t connect_signals = 0;
  uint64_t vp_migrations = 0;
  uint64_t proc_migrations = 0;
  Cycles naming_spin_cycles = 0;  // waits on the directory and KST locks
  uint64_t trace_dropped = 0;  // ring records lost; reported when tracing
  bool ok = false;
};

void CaptureCounters(const Metrics& metrics, RqResult* out) {
  out->steals = metrics.Get("runq.steals");
  out->transfers = metrics.Get("runq.transfers");
  out->rq_lock_spin_cycles = metrics.Get("runq.lock_spin_cycles");
  out->list_transfers = metrics.Get("sched.list_transfers");
  out->list_lock_spin_cycles = metrics.Get("sched.list_lock_spin_cycles");
  out->connect_signals = metrics.Get("hw.connect_signals");
  out->vp_migrations = metrics.Get("vproc.vp_migrations");
  out->proc_migrations = metrics.Get("sched.proc_migrations");
  out->naming_spin_cycles = metrics.Get("dir.read_spin_cycles") +
                            metrics.Get("dir.write_spin_cycles") +
                            metrics.Get("ksm.read_spin_cycles") +
                            metrics.Get("ksm.write_spin_cycles");
}

KernelConfig MakeConfig(const Mode& mode, uint16_t cpus, Cycles connect_cost,
                        uint32_t frames, bool trace, bool profile) {
  KernelConfig config = mode.row->Apply();
  config.memory_frames = frames;
  config.records_per_pack = 8192;
  config.cpu_count = cpus;
  config.vp_count = 6;
  config.connect_cost = connect_cost;
  config.trace.enabled = trace;
  config.profile.enabled = profile;
  config.profile.stall_rounds = kBenchStallRounds;
  return config;
}

// One run of `shape` under `mode`.  The fault storm gets 64 frames, so
// every touch of its cyclic sweep faults; the pinned mix gets 256.
RqResult Measure(const char* name, const workload::Shape& shape, const Mode& mode,
                 uint16_t cpus, Cycles connect_cost, bool trace, bool profile,
                 const char* trace_path, const char* folded_path) {
  RqResult out;
  const uint32_t frames = shape.kind == workload::Kind::kPrivateSweep ? 64 : 256;
  Kernel kernel{MakeConfig(mode, cpus, connect_cost, frames, trace, profile)};
  if (!kernel.Boot().ok() || !workload::Build(kernel, shape).ok) {
    return out;
  }
  const workload::Region region = workload::Measure(kernel, 1000000);
  if (!region.ok) {
    return out;
  }
  out.total = region.total;
  out.makespan = region.makespan;
  CaptureCounters(kernel.metrics(), &out);
  if (trace && trace_path != nullptr) {
    WriteTrace(kernel.ctx().trace, trace_path);
  }
  if (trace) {
    out.trace_dropped = TraceDroppedTotal(kernel.ctx().trace);
    JsonLine hline("runqueue_hist");
    hline.Field("workload", name)
        .Field("mode", mode.name)
        .Field("cpus", uint64_t{cpus})
        .Field("connect_cost", uint64_t{connect_cost});
    EmitJson(FieldAllHistograms(hline, kernel.metrics()));
  }
  if (profile) {
    char title[96];
    std::snprintf(title, sizeof title, "%s %s @ %u cpus, cost %llu", name, mode.name,
                  cpus, (unsigned long long)connect_cost);
    PrintProfileTable(kernel.ctx().prof, title);
    JsonLine pline("runqueue_prof");
    pline.Field("workload", name)
        .Field("mode", mode.name)
        .Field("cpus", uint64_t{cpus})
        .Field("connect_cost", uint64_t{connect_cost});
    EmitJson(FieldProfDomains(pline, kernel.ctx().prof));
    if (folded_path != nullptr) {
      WriteFolded(kernel.ctx().prof, folded_path);
    }
  }
  out.ok = true;
  return out;
}

}  // namespace
}  // namespace mks

int main(int argc, char** argv) {
  using namespace mks;
  bool smoke = false;
  bool trace = false;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      trace = true;  // the smoke run doubles as the tracer's CI exercise
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    }
  }
  const std::vector<uint16_t> cpu_counts =
      smoke ? std::vector<uint16_t>{1, 4} : std::vector<uint16_t>{1, 2, 4};
  const std::vector<Cycles> costs =
      smoke ? std::vector<Cycles>{0, 800} : std::vector<Cycles>{0, 200, 800};
  const uint32_t storm_rounds = smoke ? 1 : 4;
  const uint32_t mix_ops = smoke ? 24 : 120;
  const Cycles max_cost = costs.back();

  std::printf("=== P13: run-queue sharding x stealing x connect cost ===\n\n");
  // verdict inputs: the 4-CPU max-cost rows of each workload.
  RqResult storm_global_4, storm_steal_4;
  double mixed_global_speedup = 0, mixed_steal_speedup = 0;
  for (const char* workload : {"fault_storm", "mixed_pinned"}) {
    const bool storm = std::strcmp(workload, "fault_storm") == 0;
    std::printf("%s:\n%15s %5s %6s %12s %12s %9s %8s %10s %10s %12s\n", workload, "mode",
                "cpus", "cost", "makespan", "total", "speedup", "steals", "transfers",
                "migrations", "naming_spin");
    for (Cycles cost : costs) {
      for (const Mode& mode : kModes) {
        Cycles m1 = 0;
        for (uint16_t cpus : cpu_counts) {
          const bool heaviest = storm && mode.row->steal && cpus == 4 && cost == max_cost;
          const bool want_export = trace && heaviest;
          const bool want_folded = profile && heaviest;
          const RqResult r = Measure(
              workload,
              storm ? workload::FaultStorm(storm_rounds) : workload::PinnedMix(mix_ops), mode,
              cpus, cost, trace, profile,
              want_export ? "bench_perf_runqueue.trace.json" : nullptr,
              want_folded ? "bench_perf_runqueue.prof.folded" : nullptr);
          if (!r.ok) {
            std::fprintf(stderr, "run failed (%s, %s, %u cpus, cost %llu)\n", workload,
                         mode.name, cpus, (unsigned long long)cost);
            return 1;
          }
          if (cpus == 1) {
            m1 = r.makespan;
          }
          const double speedup = static_cast<double>(m1) / r.makespan;
          const uint64_t migrations = r.vp_migrations + r.proc_migrations;
          std::printf("%15s %5u %6llu %12llu %12llu %8.2fx %8llu %10llu %10llu %12llu\n",
                      mode.name, cpus, (unsigned long long)cost, (unsigned long long)r.makespan,
                      (unsigned long long)r.total, speedup, (unsigned long long)r.steals,
                      (unsigned long long)(r.transfers + r.list_transfers),
                      (unsigned long long)migrations,
                      (unsigned long long)r.naming_spin_cycles);
          JsonLine line("runqueue");
          line.Field("workload", workload)
              .Field("mode", mode.name)
              .Field("cpus", uint64_t{cpus})
              .Field("connect_cost", uint64_t{cost})
              .Field("makespan", r.makespan)
              .Field("total_cycles", r.total)
              .Field("speedup_vs_1cpu", speedup)
              .Field("steals", r.steals)
              .Field("queue_transfers", r.transfers)
              .Field("queue_lock_spin_cycles", r.rq_lock_spin_cycles)
              .Field("list_transfers", r.list_transfers)
              .Field("list_lock_spin_cycles", r.list_lock_spin_cycles)
              .Field("connect_signals", r.connect_signals)
              .Field("vp_migrations", r.vp_migrations)
              .Field("proc_migrations", r.proc_migrations)
              .Field("naming_spin_cycles", r.naming_spin_cycles);
          if (trace) {
            line.Field("trace_dropped", r.trace_dropped);
          }
          EmitJson(line);
          if (cpus == 4 && cost == max_cost) {
            if (storm && std::strcmp(mode.name, "global") == 0) {
              storm_global_4 = r;
            }
            if (storm && mode.row->steal) {
              storm_steal_4 = r;
            }
            if (!storm && std::strcmp(mode.name, "global") == 0) {
              mixed_global_speedup = speedup;
            }
            if (!storm && mode.row->steal) {
              mixed_steal_speedup = speedup;
            }
          }
        }
      }
    }
    std::printf("\n");
  }

  if (smoke) {
    std::printf("smoke run complete\n");
    return 0;
  }
  // Everything the scheduler's own structures charged a run: lock waits
  // plus line transfers on the ready list or the run queues.
  auto scheduler_cycles = [&](const RqResult& r) {
    return r.list_lock_spin_cycles + r.rq_lock_spin_cycles +
           (r.list_transfers + r.transfers) * max_cost;
  };
  const bool storm_wins =
      storm_steal_4.ok && storm_steal_4.makespan < storm_global_4.makespan;
  const bool mixed_wins = mixed_steal_speedup > mixed_global_speedup;
  std::printf("4-CPU fault storm, cost %llu: sharded+steal makespan %llu < global %llu: %s\n",
              (unsigned long long)max_cost, (unsigned long long)storm_steal_4.makespan,
              (unsigned long long)storm_global_4.makespan, storm_wins ? "yes" : "NO");
  std::printf("  scheduler lock + line cycles: global %llu, sharded+steal %llu; "
              "naming-lock waits: global %llu, sharded+steal %llu\n",
              (unsigned long long)scheduler_cycles(storm_global_4),
              (unsigned long long)scheduler_cycles(storm_steal_4),
              (unsigned long long)storm_global_4.naming_spin_cycles,
              (unsigned long long)storm_steal_4.naming_spin_cycles);
  std::printf("4-CPU mixed_pinned, cost %llu: sharded+steal speedup %.2fx > global %.2fx: %s\n",
              (unsigned long long)max_cost, mixed_steal_speedup, mixed_global_speedup,
              mixed_wins ? "yes" : "NO");
  // The storm is paging-bound.  When its scheduler charges are under 1% of
  // the naming-lock waits in both modes, dispatch is not what sets its
  // makespan, and a loss there is reported, not attributed to sharding.
  const bool storm_not_dispatch_bound =
      scheduler_cycles(storm_global_4) * 100 < storm_global_4.naming_spin_cycles &&
      scheduler_cycles(storm_steal_4) * 100 < storm_steal_4.naming_spin_cycles;
  const bool explained = !storm_wins && storm_not_dispatch_bound;
  std::printf("\nsharded dispatch keeps scheduler traffic off the interconnect the global\n"
              "ready list saturates -> %s\n",
              storm_wins && mixed_wins ? "REPRODUCED"
              : mixed_wins && explained
                  ? "MISMATCH (explained: the storm's makespan is set by naming-lock waits,\n"
                    "not by dispatch; its scheduler charges are under 1% of them in both modes)"
                  : "MISMATCH");
  return mixed_wins && (storm_wins || explained) ? 0 : 1;
}
