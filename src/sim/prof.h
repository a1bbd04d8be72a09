// Per-CPU hierarchical cycle-accounting profiler with a stall watchdog.
//
// Every cycle is a deterministic Charge on the shared Clock, so attribution
// is a bookkeeping overlay with zero sampling error.  The profiler keeps one
// tree per simulated CPU whose nodes are (manager, activity) cells: a
// manager is a module of the lattice, an activity one of the ProfDomains
// below.  Every ManagerScope frame (src/sim/scope.h) enters a cell, and the
// virtual-clock delta since the previous enter/leave is charged to the
// innermost cell — so a tree path reads as a manager path, and summing the
// cells over managers gives the per-activity DomainTotals.
//
// The hard invariant (tests/prof_test.cc): per CPU, attributed cycles ==
// that CPU's local clock advance.  Local clocks move only through
// CpuInterleave's Accrue, AdvanceAll and AlignAll, and the profiler hooks all
// three.  A `Prof::Window` brackets each accrual window (the kernel's
// CpuWindow opens it and closes it after the window's Accrue) and
// attributes only the frames entered after it opened; frames entered with
// no window open stay inert, so construction-time work never pollutes the
// trees.  AdvanceAll/AlignAll deltas go to `idle` on both sides
// of the ledger.  Disabled, every entry point early-returns on one branch.
//
// The stall watchdog is independent of attribution (benches arm it without
// perturbing output): the scheduler reports a monotonic progress stamp
// (quanta run + device completions + wakeups) once per dispatch round, and
// when it freezes for `stall_rounds` consecutive rounds the caller dumps its
// flight recorder and aborts.  The stamp — not the raw clock — is what
// freezes in every reachable hang: per-round vp state stores always advance
// the clock a few cycles, so a livelock shows the clock creeping and only
// the progress stamp pinned.
#ifndef MKS_SIM_PROF_H_
#define MKS_SIM_PROF_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/sim/clock.h"

namespace mks {

// Attribution domains.  KST sections ride the directory domains: the known
// segment table is the per-process face of the naming surface, and P16-style
// analysis wants "naming, read side" as one number.
enum class ProfDomain : uint8_t {
  kDispatch = 0,    // scheduler passes, vp switches, queue surgery
  kUprocQuantum,    // user-process op execution inside a quantum
  kFaultService,    // segment/page/quota fault handling
  kPagingIo,        // disk reads/writes, daemon steps, pool replenish
  kDirectoryRead,   // classified read sections (dir.* and ksm.*)
  kDirectoryWrite,  // classified write sections (dir.* and ksm.*)
  kGate,            // ring-crossing entries and user-ring references
  kLockSpin,        // waiting for a holder to release (the gap)
  kLockHandoff,     // coherence traffic of a contended grant
  kSteal,           // cross-CPU work-stealing scans and migrations
  kSessionSetup,    // answering-service login/logout transactions
  kIdle,            // local clock advanced with no work on this CPU
};

inline constexpr size_t kProfDomainCount = 12;

// A frame that names no activity keeps the enclosing cell's.
inline constexpr ProfDomain kInheritActivity = static_cast<ProfDomain>(kProfDomainCount);

inline const char* ProfDomainName(ProfDomain d) {
  static constexpr const char* kNames[kProfDomainCount] = {
      "dispatch",    "uproc-quantum",   "fault-service", "paging-io",
      "directory-read", "directory-write", "gate",       "lock-spin",
      "lock-handoff", "steal",          "session-setup", "idle",
  };
  return kNames[static_cast<size_t>(d)];
}

struct ProfConfig {
  bool enabled = false;
  // Consecutive dispatch rounds tolerated with a frozen progress stamp
  // before the stall watchdog fires.  0 disables the watchdog.  Independent
  // of `enabled`: arming only the watchdog never changes a run's output.
  uint64_t stall_rounds = 0;
};

class Prof {
 public:
  explicit Prof(const Clock* clock) : clock_(clock) {}
  Prof(const Prof&) = delete;
  Prof& operator=(const Prof&) = delete;

  // Call once, before the kernel starts charging; sizes one lane per CPU.
  void Enable(uint16_t cpu_count, const ProfConfig& config) {
    enabled_ = config.enabled;
    stall_rounds_ = config.stall_rounds;
    lanes_.clear();
    if (enabled_) {
      lanes_.resize(cpu_count == 0 ? 1 : cpu_count);
      for (Lane& lane : lanes_) {
        lane.nodes.push_back(Node{});  // synthetic per-CPU root, index 0
      }
    }
  }

  bool enabled() const { return enabled_; }
  bool in_window() const { return cur_ != kNoNode; }
  uint16_t cpu_count() const { return static_cast<uint16_t>(lanes_.size()); }

  // ---- accrual windows -----------------------------------------------

  // Brackets one accrual window on `cpu`: opened by the kernel's CpuWindow,
  // closed after its CpuInterleave::Accrue.  Everything charged to the
  // global clock in between is attributed — to the manager-less `root` cell
  // by default, to the innermost cell when a frame entered after the window
  // opened.
  class Window {
   public:
    Window(Prof* prof, uint16_t cpu, ProfDomain root)
        : prof_(prof != nullptr && prof->enabled_ ? prof : nullptr) {
      if (prof_ != nullptr) {  // windows never nest: the host is serialized
        prof_->lane_cpu_ = cpu < prof_->lanes_.size() ? cpu : 0;
        prof_->cur_ = prof_->FindOrAddChild(prof_->lanes_[prof_->lane_cpu_], 0, kNoModule, root);
        prof_->mark_ = prof_->clock_->now();
      }
    }
    // Idempotent early close.
    void Close() {
      if (prof_ != nullptr) {
        prof_->Attribute();
        prof_->cur_ = kNoNode;
        prof_ = nullptr;
      }
    }
    ~Window() { Close(); }
    Window(const Window&) = delete;
    Window& operator=(const Window&) = delete;

   private:
    Prof* prof_;
  };

  // ---- frame hooks (driven by ManagerScope, src/sim/scope.h) -----------

  static constexpr uint32_t kNoNode = 0xffffffffu;

  // Enters the (manager, activity) cell under the current one; kNoModule
  // and kInheritActivity keep the current cell's manager and activity, and
  // an unchanged cell collapses onto the current node.  Returns the node
  // Leave resumes — kNoNode (inert) when no window is open.
  uint32_t Enter(ModuleId manager, ProfDomain activity) {
    if (cur_ == kNoNode) {
      return kNoNode;
    }
    Attribute();
    const uint32_t resume = cur_;
    Lane& lane = lanes_[lane_cpu_];
    const Node& top = lane.nodes[cur_];
    manager = manager == kNoModule ? top.manager : manager;
    activity = activity == kInheritActivity ? top.domain : activity;
    if (manager != top.manager || activity != top.domain) {
      cur_ = FindOrAddChild(lane, cur_, manager, activity);
    }
    return resume;
  }

  // Leaves a cell entered by Enter.  Frames nest inside their window, so a
  // live `resume` always belongs to the open window.
  void Leave(uint32_t resume) {
    if (resume == kNoNode || cur_ == kNoNode) {
      return;
    }
    Attribute();
    cur_ = resume;
  }

  // Labels manager `id` in the folded stacks and tree dumps.
  void NameManager(ModuleId id, std::string_view name) {
    if (managers_.size() <= id.value) {
      managers_.resize(id.value + 1);
    }
    managers_[id.value] = name;
  }

  // ---- CpuInterleave hooks -------------------------------------------

  // A dispatch window's delta was accrued to `cpu`'s local clock.
  void NoteAccrue(uint16_t cpu, Cycles delta) {
    if (!enabled_ || cpu >= lanes_.size()) {
      return;
    }
    lanes_[cpu].accrued += delta;
  }

  // Pool-wide idle: every local clock advanced by `delta`.
  void NoteAdvanceAll(Cycles delta) {
    if (!enabled_) {
      return;
    }
    for (uint16_t cpu = 0; cpu < lanes_.size(); ++cpu) {
      ChargeIdle(cpu, delta);
    }
  }

  // AlignAll catch-up: `cpu` jumped forward by `delta` to the makespan.
  void NoteAlign(uint16_t cpu, Cycles delta) {
    if (!enabled_ || cpu >= lanes_.size()) {
      return;
    }
    ChargeIdle(cpu, delta);
  }

  // ---- stall watchdog ------------------------------------------------

  // The scheduler calls this once per dispatch round with its monotonic
  // progress stamp (quanta run + completions + wakeups).  Returns true when
  // the stamp has been frozen for `stall_rounds` consecutive rounds — the
  // caller should dump its flight recorder and abort.  Works with the
  // profiler disabled.
  bool NoteDispatchRound(uint64_t stamp) {
    if (stall_rounds_ == 0) {
      return false;
    }
    if (stamp != last_round_stamp_) {
      last_round_stamp_ = stamp;
      stalled_rounds_ = 0;
      return false;
    }
    return ++stalled_rounds_ >= stall_rounds_;
  }

  uint64_t stall_rounds() const { return stall_rounds_; }
  uint64_t stalled_rounds() const { return stalled_rounds_; }

  // ---- readback ------------------------------------------------------

  // The two sides of the per-CPU ledger; equal whenever no window is open.
  Cycles attributed(uint16_t cpu) const {
    return cpu < lanes_.size() ? lanes_[cpu].attributed : 0;
  }
  Cycles accrued(uint16_t cpu) const {
    return cpu < lanes_.size() ? lanes_[cpu].accrued : 0;
  }

  // Self-cycles summed per domain across all CPUs.
  std::array<Cycles, kProfDomainCount> DomainTotals() const;

  // Self-cycles per (manager, activity) cell on `cpu`; the manager is ""
  // for cycles charged outside every module frame.
  std::map<std::pair<std::string, ProfDomain>, Cycles> Cells(uint16_t cpu) const;

  // Collapsed-stack flamegraph text: one line per tree node with nonzero
  // self time, each node labelled "manager:activity" (bare "activity" for a
  // manager-less cell), e.g. "cpu0;dispatch;gate_keeper:gate 1234\n"
  // (flamegraph.pl format).
  std::string CollapsedStacks() const;

  // Human-readable per-CPU cell trees (the stall dump's first section).
  void DumpTree(FILE* out) const;

 private:
  struct Node {
    ModuleId manager = kNoModule;
    ProfDomain domain = ProfDomain::kIdle;  // unused on the synthetic root
    uint32_t parent = kNoNode;
    uint32_t first_child = kNoNode;
    uint32_t next_sibling = kNoNode;
    Cycles self = 0;
  };

  struct Lane {
    std::vector<Node> nodes;  // nodes[0] is the synthetic root
    Cycles attributed = 0;
    Cycles accrued = 0;
    uint32_t idle = kNoNode;  // cached root-level idle node
  };

  // Attributes the global-clock delta since the last attribution event to
  // the innermost open cell.  Only called with a window open.
  void Attribute() {
    const Cycles now = clock_->now();
    if (now > mark_) {
      Lane& lane = lanes_[lane_cpu_];
      lane.nodes[cur_].self += now - mark_;
      lane.attributed += now - mark_;
    }
    mark_ = now;
  }

  uint32_t FindOrAddChild(Lane& lane, uint32_t parent, ModuleId manager, ProfDomain domain) {
    for (uint32_t n = lane.nodes[parent].first_child; n != kNoNode;
         n = lane.nodes[n].next_sibling) {
      if (lane.nodes[n].manager == manager && lane.nodes[n].domain == domain) {
        return n;
      }
    }
    const uint32_t idx = static_cast<uint32_t>(lane.nodes.size());
    lane.nodes.push_back(Node{manager, domain, parent, kNoNode, kNoNode, 0});
    // Append at the tail so sibling order is first-seen — deterministic.
    uint32_t* link = &lane.nodes[parent].first_child;
    while (*link != kNoNode) {
      link = &lane.nodes[*link].next_sibling;
    }
    *link = idx;
    return idx;
  }

  // Visits the cells under `node` depth-first, siblings in first-seen order,
  // so two identical runs export identical text.
  template <typename Visit>
  static void Walk(const Lane& lane, uint32_t node, int depth, const Visit& visit) {
    for (uint32_t n = lane.nodes[node].first_child; n != kNoNode; n = lane.nodes[n].next_sibling) {
      visit(lane.nodes[n], depth);
      Walk(lane, n, depth + 1, visit);
    }
  }

  std::string ManagerName(ModuleId id) const;  // "" for kNoModule
  std::string Label(const Node& node) const;     // "manager:activity"

  void ChargeIdle(uint16_t cpu, Cycles delta) {
    Lane& lane = lanes_[cpu];
    if (lane.idle == kNoNode) {
      lane.idle = FindOrAddChild(lane, 0, kNoModule, ProfDomain::kIdle);
    }
    lane.nodes[lane.idle].self += delta;
    lane.attributed += delta;
    lane.accrued += delta;
  }

  const Clock* clock_;
  bool enabled_ = false;
  std::vector<Lane> lanes_;
  std::vector<std::string> managers_;  // manager labels, by ModuleId

  // Current window (at most one open at a time; host is single-threaded).
  uint16_t lane_cpu_ = 0;
  Cycles mark_ = 0;
  uint32_t cur_ = kNoNode;  // innermost cell in lanes_[lane_cpu_]; kNoNode: no window

  // Watchdog.
  uint64_t stall_rounds_ = 0;
  uint64_t stalled_rounds_ = 0;
  uint64_t last_round_stamp_ = ~uint64_t{0};
};

}  // namespace mks

#endif  // MKS_SIM_PROF_H_
