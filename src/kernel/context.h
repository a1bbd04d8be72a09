// The simulated machine both supervisors run on.
//
// Every kernel manager receives a KernelContext*: the simulated clock/cost
// model, metrics, the deferred-completion event queue, the runtime
// dependency tracker and the ManagerScope frame stack over it, the
// eventcount table, the reference monitor, primary memory, the disk volumes,
// and the processors.  The 1973 baseline owns one too and leaves the
// kernel-only parts (events, eventcounts, monitor, processors) idle.  The
// context owns no policy; it is the "machine room" the managers are built
// over.
#ifndef MKS_KERNEL_CONTEXT_H_
#define MKS_KERNEL_CONTEXT_H_

#include <cstdint>

#include "src/aim/monitor.h"
#include "src/deps/tracker.h"
#include "src/disk/pack.h"
#include "src/hw/machine.h"
#include "src/sim/clock.h"
#include "src/sim/cpu_sched.h"
#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/sim/prof.h"
#include "src/sim/scope.h"
#include "src/sim/trace.h"
#include "src/sync/eventcount.h"

namespace mks {

struct KernelContext {
  KernelContext(uint32_t memory_frames, HwFeatures features, double structured_factor,
                uint64_t secret_seed, uint16_t cpu_count = 1, Cycles connect_cost = 0)
      : cost(&clock),
        trace(&clock, &metrics),
        prof(&clock),
        scopes(&tracker, &prof, &trace),
        eventcounts(&metrics),
        monitor(&clock, &metrics),
        memory(memory_frames, &cost, &metrics),
        volumes(&cost, &metrics, &scopes),
        cpus(cpu_count, features, &cost, &metrics, &trace),
        smp(cpu_count, &metrics),
        secret(secret_seed) {
    cost.set_structured_factor(structured_factor);
    cpus.set_connect_cost(connect_cost);
    smp.set_prof(&prof);
  }

  Clock clock;
  CostModel cost;
  Metrics metrics;
  Tracer trace;  // virtual-time event rings; inert until Enable()d
  Prof prof;     // per-CPU cycle attribution + stall watchdog; inert until Enable()d
  EventQueue events;
  CallTracker tracker;
  ScopeStack scopes;  // the ManagerScope frames: edges, profiler cells, spans
  EventcountTable eventcounts;
  ReferenceMonitor monitor;
  PrimaryMemory memory;
  VolumeControl volumes;
  ProcessorPool cpus;    // the machine's service processors
  CpuInterleave smp;     // deterministic quantum interleaving + per-CPU accounting
  uint16_t current_cpu = 0;  // CPU executing the current computation
  uint64_t secret;       // per-boot secret keying Bratt mythical identifiers

  // The processor the current computation runs on.  Code that handles the
  // in-flight reference (fault dispatch, wakeup-waiting, DSBR binding) uses
  // this; descriptor mutations use the broadcast forms on `cpus`.
  Processor& cpu() { return cpus.cpu(current_cpu); }

  // The current CpuWindow's anchor.  Local clocks advance only when a
  // window accrues, so LocalNow() — the CPU's local clock at window open
  // plus the global-clock progress since — is the local time the in-flight
  // computation has reached.  With no window opened yet it is the global
  // clock: right for directly driven work, one computation at a time.
  Cycles window_anchor_local = 0;
  Cycles window_anchor_global = 0;
  void AnchorWindow() {
    window_anchor_local = smp.local_now(current_cpu);
    window_anchor_global = clock.now();
  }
  Cycles LocalNow() const { return window_anchor_local + (clock.now() - window_anchor_global); }

  // The barrier into a directly driven region: every local clock aligned
  // and advanced to the global clock, so release points recorded by
  // unwindowed work (boot, setup) never read as contention against the
  // region's windows.  Returns the makespan the region starts from.
  Cycles AlignToClock() {
    smp.AlignAll();
    if (clock.now() > smp.Makespan()) {
      smp.AdvanceAll(clock.now() - smp.Makespan());
    }
    return smp.Makespan();
  }
};

// One window of work on one simulated CPU — the only way work is put on a
// CPU.  Opening it makes `cpu` the current CPU (in-flight references and the
// tracer both follow it), anchors LocalNow(), and opens the profiler window
// rooted at `root`.  Closing it accrues the global-clock progress since the
// last accrual to `cpu` when positive, then closes the profiler window.
// Accrue() settles the progress so far mid-window (a quantum accrues before
// its requeue tail), so no cycle is accrued twice.
class CpuWindow {
 public:
  CpuWindow(KernelContext* ctx, uint16_t cpu, ProfDomain root)
      : ctx_(ctx), cpu_(cpu), prof_(Enter(ctx, cpu), cpu, root), start_(ctx->clock.now()),
        mark_(start_) {}
  ~CpuWindow() { Close(); }
  CpuWindow(const CpuWindow&) = delete;
  CpuWindow& operator=(const CpuWindow&) = delete;

  // Accrues the progress since the window opened or last accrued; returns it.
  Cycles Accrue() {
    const Cycles delta = ctx_->clock.now() - mark_;
    mark_ += delta;
    if (delta > 0) {
      ctx_->smp.Accrue(cpu_, delta);
    }
    return delta;
  }

  // Idempotent early close.
  void Close() {
    if (open_) {
      Accrue();
      prof_.Close();
      open_ = false;
    }
  }

  uint16_t cpu() const { return cpu_; }
  Cycles start() const { return start_; }  // global clock at open

 private:
  static Prof* Enter(KernelContext* ctx, uint16_t cpu) {
    ctx->current_cpu = cpu;
    ctx->trace.SetCpu(cpu);
    ctx->AnchorWindow();
    return &ctx->prof;
  }

  KernelContext* ctx_;
  uint16_t cpu_;
  Prof::Window prof_;
  Cycles start_;
  Cycles mark_;
  bool open_ = true;
};

// Canonical module names used in both the declared lattice and the runtime
// tracker.  Matching the names exactly is what lets tests compare them.
namespace module_names {
inline constexpr const char* kCoreSegment = "core_segment_manager";
inline constexpr const char* kVproc = "virtual_processor_manager";
inline constexpr const char* kDiskVolume = "disk_volume_control";
inline constexpr const char* kQuotaCell = "quota_cell_manager";
inline constexpr const char* kPageFrame = "page_frame_manager";
inline constexpr const char* kSegment = "segment_manager";
inline constexpr const char* kAddressSpace = "address_space_manager";
inline constexpr const char* kKnownSegment = "known_segment_manager";
inline constexpr const char* kDirectory = "directory_manager";
inline constexpr const char* kUserProcess = "user_process_manager";
inline constexpr const char* kGates = "gate_keeper";
}  // namespace module_names

}  // namespace mks

#endif  // MKS_KERNEL_CONTEXT_H_
