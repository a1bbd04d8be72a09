// The instrumentation spine (DESIGN §5): one RAII ManagerScope marks each
// manager boundary on one frame stack.  A scope names a module, an activity
// (ProfDomain), a trace span, or any mix, and from the one stack it
//  * records the observed lattice edge from the nearest enclosing module
//    frame (same-module re-entry records nothing);
//  * enters the profiler's (manager, activity) cell, inheriting the half it
//    does not name from the enclosing cell;
//  * records its trace span, whose duration also feeds the span's histogram.
// A barrier frame (kBarrier) is a fresh entry into the supervisor — a fault,
// or the upward signal that leaves "no procedure activation records" behind:
// it blocks edges but not profiler nesting.  Instrumentation charges no
// cycles.  A frame is 8 bytes; span state lives on the scope object.
#ifndef MKS_SIM_SCOPE_H_
#define MKS_SIM_SCOPE_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/deps/tracker.h"
#include "src/sim/prof.h"
#include "src/sim/trace.h"
#include "src/sync/spinlock.h"

namespace mks {

inline constexpr ModuleId kBarrier{UINT16_MAX - 1};

// Recorded when the scope ends — or, with `on_end`, only by EndSpan(), so
// paths that never call it (error returns, a fruitless scan) record nothing.
struct TraceSpan {
  TraceEventId event = kNoTraceEvent;
  uint32_t proc = 0;
  uint32_t arg = 0;
  HistId hist = kNoHist;
  bool on_end = false;
};

// The profiler and tracer may be null (sim-layer rigs); the tracker only
// where no module is registered or entered (rigs with just a tracer).
class ScopeStack {
 public:
  ScopeStack(CallTracker* tracker, Prof* prof, Tracer* trace)
      : tracker_(tracker), prof_(prof), trace_(trace) {}
  ScopeStack(const ScopeStack&) = delete;
  ScopeStack& operator=(const ScopeStack&) = delete;

  // Registers a module with the tracker and names it on the profiler.
  ModuleId Register(std::string_view name) {
    const ModuleId id = tracker_->Register(name);
    if (prof_ != nullptr) {
      prof_->NameManager(id, name);
    }
    return id;
  }
  Tracer* trace() const { return trace_; }

 private:
  friend class ManagerScope;
  struct Frame {
    uint32_t resume;  // profiler node to resume on pop (Prof::kNoNode: inert)
    ModuleId caller;  // the module a nested module frame is called from
  };

  void Push(ModuleId module, ProfDomain activity);
  void Pop();

  CallTracker* tracker_;
  Prof* prof_;
  Tracer* trace_;
  std::vector<Frame> frames_;
};

class ManagerScope {
 public:
  // `module` may be kNoModule or kBarrier; a null `stack` is inert.
  ManagerScope(ScopeStack* stack, ModuleId module, ProfDomain activity = kInheritActivity,
               TraceSpan span = {})
      : stack_(stack), span_(span) {
    // A frame naming only an activity matters only inside a profiler window.
    pushed_ = stack != nullptr &&
              (module != kNoModule || (activity != kInheritActivity && stack->prof_ != nullptr &&
                                       stack->prof_->in_window()));
    if (pushed_) {
      stack->Push(module, activity);
    }
    if (span_.event != kNoTraceEvent) {
      if (stack != nullptr && stack->trace_ != nullptr && stack->trace_->enabled()) {
        begin_ = stack->trace_->Begin();
      } else {
        span_.event = kNoTraceEvent;
      }
    }
  }
  ManagerScope(ScopeStack* stack, ProfDomain activity, TraceSpan span = {})
      : ManagerScope(stack, kNoModule, activity, span) {}
  ManagerScope(ScopeStack* stack, TraceSpan span)
      : ManagerScope(stack, kNoModule, kInheritActivity, span) {}
  ~ManagerScope() {
    if (!span_.on_end) {
      EndSpan();
    }
    if (pushed_) {
      stack_->Pop();
    }
  }
  ManagerScope(const ManagerScope&) = delete;
  ManagerScope& operator=(const ManagerScope&) = delete;

  void set_span_proc(uint32_t proc) { span_.proc = proc; }
  void set_span_arg(uint32_t arg) { span_.arg = arg; }
  // Start stamp (0 when not tracing) for a span closed after the scope.
  Cycles span_begin() const { return begin_; }
  // Records the span now; it is recorded at most once.
  void EndSpan() {
    if (span_.event != kNoTraceEvent) {
      stack_->trace_->CloseSpan(begin_, span_.event, span_.proc, span_.arg, span_.hist);
      span_.event = kNoTraceEvent;
    }
  }

 private:
  ScopeStack* stack_;
  TraceSpan span_;
  Cycles begin_ = 0;
  bool pushed_ = false;
};

// Charges one lock wait to `cost` as optimized code: `spin` cycles in all,
// of which `handoff` (clamped to `spin`) is the grant's coherence traffic,
// seen by the profiler as lock-spin and lock-handoff; `span` covers both.
// Every lock site charges its waits through here.
inline void ChargeLockWait(CostModel& cost, ScopeStack* scopes, Cycles spin, Cycles handoff,
                           TraceSpan span = {}) {
  const ManagerScope wait_span(scopes, span);
  handoff = std::min(handoff, spin);
  if (spin > handoff) {
    const ManagerScope wait(scopes, ProfDomain::kLockSpin);
    cost.Charge(CodeStyle::kOptimized, spin - handoff);
  }
  if (handoff > 0) {
    const ManagerScope grant(scopes, ProfDomain::kLockHandoff);
    cost.Charge(CodeStyle::kOptimized, handoff);
  }
}

// One shared cache line under one SimSpinLock (the global ready list, a
// run-queue shard) and the CPU that last touched it.
struct LockedLine {
  static constexpr uint16_t kNoCpu = UINT16_MAX;
  SimSpinLock lock;
  uint16_t owner = kNoCpu;
};

// One tenure of a SimSpinLock in virtual time; every lock site takes its
// lock through one.  Opening it acquires the lock from `cpu` at local time
// `lnow` and charges any wait through ChargeLockWait (recorded as `span`).
// Opened on a LockedLine, a touch from a CPU other than the line's last
// owner also charges one `transfer_cost` line transfer as lock-handoff.
// Release() frees the lock at `lnow` plus every cycle charged since the
// acquire, the wait included, plus `hold`: tenure the caller models without
// charging it.  It is idempotent; scope end releases with no hold.  A null
// lock makes the section inert.
class SpinSection {
 public:
  SpinSection(SimSpinLock* lock, uint16_t cpu, Cycles lnow, CostModel& cost, ScopeStack* scopes,
              TraceSpan span = {})
      : lock_(lock), clock_(cost.clock()), lnow_(lnow), start_(clock_->now()) {
    if (lock_ == nullptr) {
      return;
    }
    spin_ = lock_->Acquire(lnow, cpu);
    if (spin_ > 0) {
      ChargeLockWait(cost, scopes, spin_, lock_->last_acquire_handoff(), span);
    }
  }
  SpinSection(LockedLine& line, Cycles transfer_cost, uint16_t cpu, Cycles lnow, CostModel& cost,
              ScopeStack* scopes, TraceSpan span = {})
      : SpinSection(&line.lock, cpu, lnow, cost, scopes, span) {
    if (transfer_cost > 0 && line.owner != cpu && line.owner != LockedLine::kNoCpu) {
      ChargeLockWait(cost, scopes, transfer_cost, transfer_cost);
      transfer_ = transfer_cost;
    }
    line.owner = cpu;
  }
  SpinSection(SpinSection&& other) noexcept
      : lock_(other.lock_), clock_(other.clock_), lnow_(other.lnow_), start_(other.start_),
        spin_(other.spin_), transfer_(other.transfer_) {
    other.lock_ = nullptr;
  }
  SpinSection(const SpinSection&) = delete;
  SpinSection& operator=(const SpinSection&) = delete;
  SpinSection& operator=(SpinSection&&) = delete;
  ~SpinSection() { Release(); }

  // The wait: the gap to the holder's release plus the grant's traffic.
  Cycles spin() const { return spin_; }
  // The line bounce: 0 or transfer_cost.
  Cycles transfer() const { return transfer_; }
  // Cycles charged since the acquire, the wait included.
  Cycles charged() const { return clock_->now() - start_; }

  void Release(Cycles hold = 0) {
    if (lock_ != nullptr) {
      lock_->Release(lnow_ + charged() + hold);
      lock_ = nullptr;
    }
  }

 private:
  SimSpinLock* lock_;
  const Clock* clock_;
  Cycles lnow_;
  Cycles start_;
  Cycles spin_ = 0;
  Cycles transfer_ = 0;
};

}  // namespace mks

#endif  // MKS_SIM_SCOPE_H_
