// The workload shapes the multiprocessor benches and tests drive, built in
// one place.  A Shape is plain data; Build() makes its processes, segments
// and programs on either supervisor, Measure() runs the measured region, and
// Run() adds a Snapshot of everything observable.  No gtest dependency.
//
//   kPrivateSweep — each process sweeps its own segment (P11's fault storm:
//                   working sets past the frame pool make every touch fault);
//   kSharedSweep  — every process sweeps ONE shared segment from a staggered
//                   start, so CPUs collide on in-flight pages (P12);
//   kComputeWrite — compute every third op, paged writes otherwise (P5/P11);
//   kPinnedMix    — paged readers pinned to CPUs {0,1}, compute processes
//                   pinned to {2,3}, each pin applied only where it meets
//                   the pool (P13/P15).
#ifndef MKS_BENCH_WORKLOAD_H_
#define MKS_BENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "src/answering/service.h"
#include "src/baseline/supervisor.h"
#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"
#include "src/sim/trace.h"

namespace mks {

// `prefix` followed by `n` ("n" + std::to_string(n) trips GCC 12's
// -Wrestrict false positive when inlined into a by-value argument).
inline std::string Numbered(std::string prefix, uint64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

inline Acl WorldAcl() {
  Acl acl;
  acl.Add(AclEntry{"*", "*", AccessModes::RWE()});
  return acl;
}

// ---------------------------------------------------------------------------
// The comparator table.  KernelConfig{} and AnsweringConfig{} are the
// modelled machine and service the repository benchmark measures.  Every
// experiment that measures against something else takes its configuration
// from here, and each row names its whole knob set.  A bench that sweeps one
// knob (P13 the connect cost, P15 the lock policy, P16 the read policy,
// whose kExclusive is P16's comparator) applies its row, then sets that knob
// and prints it.
// ---------------------------------------------------------------------------
namespace comparator {

// The six kernel knobs that tell the modelled machine from its comparators.
struct KernelRow {
  bool sharded_runqueues;
  bool steal;
  Cycles connect_cost;
  LockPolicy lock_policy;
  ReadPolicy read_policy;
  bool slab_processes;

  // `config` with this row's knobs; every other field is left as it was.
  KernelConfig Apply(KernelConfig config = KernelConfig{}) const {
    config.sharded_runqueues = sharded_runqueues;
    config.steal = steal;
    config.connect_cost = connect_cost;
    config.lock_policy = lock_policy;
    config.read_policy = read_policy;
    config.slab_processes = slab_processes;
    return config;
  }
};

// KernelConfig{} itself, spelled out once so tests can hold the defaults
// to it.
inline constexpr KernelRow kModelled{
    true, true, Costs::kLineTransfer, LockPolicy::kMcs, ReadPolicy::kPassiveRw, true};
// P13, P15: one global ready list behind one lock, the traffic controller.
inline constexpr KernelRow kGlobalDispatch{
    false, false, Costs::kLineTransfer, LockPolicy::kMcs, ReadPolicy::kPassiveRw, true};
// P13: per-CPU run queues that never steal.
inline constexpr KernelRow kStealOff{
    true, false, Costs::kLineTransfer, LockPolicy::kMcs, ReadPolicy::kPassiveRw, true};
// P18 (every mode but full), the process-teardown test: each destroyed
// process is torn down instead of parked on the slab.
inline constexpr KernelRow kSlabOff{
    true, true, Costs::kLineTransfer, LockPolicy::kMcs, ReadPolicy::kPassiveRw, false};
// P14, the vp-pool ablation, the invariant sweep and the knobs-off tests:
// the 1977 machine — one ready list, a free interconnect, test-and-set,
// reader-writer naming locks (passive-rw with free traffic), every process
// torn down on destroy.
inline constexpr KernelRow k1977{
    false, false, 0, LockPolicy::kTestAndSet, ReadPolicy::kPassiveRw, false};

// The answering-service rows; AnsweringConfig{} (kSharded MCS tables with
// the skeleton cache) is the modelled service.
//
// P3, P14, P18: the seed service — one unlocked table, no skeleton cache.
inline const AnsweringConfig kSerialService{.table_mode = SessionTableMode::kSerial,
                                            .table_lock_policy = LockPolicy::kTestAndSet,
                                            .table_line_transfer_cost = 0,
                                            .skeleton_cache = false};
// P18: one test-and-set lock held across the whole login transaction.
inline const AnsweringConfig kCoarseService{.table_mode = SessionTableMode::kCoarse,
                                            .table_lock_policy = LockPolicy::kTestAndSet,
                                            .table_line_transfer_cost = 0,
                                            .skeleton_cache = false};
// P18: the sharded MCS tables without the skeleton cache.
inline const AnsweringConfig kShardedService{.table_mode = SessionTableMode::kSharded,
                                             .table_lock_policy = LockPolicy::kMcs,
                                             .table_line_transfer_cost = Costs::kLineTransfer,
                                             .skeleton_cache = false};

}  // namespace comparator

namespace workload {

enum class Kind : uint8_t { kPrivateSweep, kSharedSweep, kComputeWrite, kPinnedMix };

struct Shape {
  Kind kind = Kind::kPrivateSweep;
  uint32_t processes = 4;
  uint32_t pages = 24;   // per segment; the offset modulus of the mixes
  uint32_t rounds = 1;   // sweeps over the pages (sweep kinds)
  uint32_t ops = 0;      // ops per process (mix kinds)
  Cycles compute = 40;   // cycles per compute op
  uint32_t quantum = 0;  // scheduler quantum; 0 keeps the kernel's
  bool populate = true;  // write every page once (value p+1) before the run
  // Op n of process i writes value_per_op*n + value_per_process*i + value_base.
  Word value_per_op = 1;
  Word value_per_process = 0;
  Word value_base = 0;
  bool advance_when_done = false;  // kernel: each program ends advancing an eventcount
  const char* path = ">work>p";    // numbered per process unless shared
  const char* person = nullptr;    // kernel: numbered, project Projx; null: Bench.Proj
};

// P11's fault storm: 4 processes x 24 pages, past a 64-frame pool.
inline Shape FaultStorm(uint32_t rounds) {
  return Shape{.kind = Kind::kPrivateSweep, .processes = 4, .pages = 24, .rounds = rounds};
}

// P13's dispatch-rate-bound mix at quantum 2: every pair of ops pays a full
// dispatch round trip through the scheduler's shared state.
inline Shape PinnedMix(uint32_t ops) {
  return Shape{.kind = Kind::kPinnedMix,
               .processes = 8,
               .pages = 16,
               .ops = ops,
               .quantum = 2,
               .path = ">work>m"};
}

// Process i's program over `segno` (kRead, kWrite and kCompute ops only).
inline std::vector<UserOp> Program(const Shape& s, uint32_t i, Segno segno) {
  std::vector<UserOp> program;
  if (s.kind == Kind::kPrivateSweep || s.kind == Kind::kSharedSweep) {
    const uint32_t start = s.kind == Kind::kSharedSweep ? i * (s.pages / s.processes) : 0;
    program.reserve(static_cast<size_t>(s.rounds) * s.pages);
    for (uint32_t r = 0; r < s.rounds; ++r) {
      for (uint32_t p = 0; p < s.pages; ++p) {
        program.push_back(UserOp::Read(segno, ((start + p) % s.pages) * kPageWords));
      }
    }
    return program;
  }
  const bool reader = s.kind == Kind::kPinnedMix && i < s.processes / 2;
  for (uint32_t n = 0; n < s.ops; ++n) {
    if (reader) {
      program.push_back(UserOp::Read(segno, (n % s.pages) * kPageWords));
    } else if (s.kind == Kind::kPinnedMix || n % 3 == 0) {
      program.push_back(UserOp::Compute(s.compute));
    } else {
      program.push_back(UserOp::Write(segno, (n % s.pages) * kPageWords + n,
                                      s.value_per_op * n + s.value_per_process * i + s.value_base));
    }
  }
  return program;
}

// The last word process i writes (offset and value); kCompute when none.
inline UserOp LastWrite(const Shape& s, uint32_t i) {
  UserOp last;
  for (const UserOp& op : Program(s, i, Segno{})) {
    last = op.kind == UserOp::Kind::kWrite ? op : last;
  }
  if (last.kind != UserOp::Kind::kWrite && s.populate) {  // shared: process 0 wrote it
    last = UserOp::Write(Segno{}, (s.pages - 1) * kPageWords, s.pages);
  }
  return last;
}

struct Built {
  std::vector<ProcessId> pids;
  std::vector<Segno> segnos;  // kernel: each process's segment number
  bool ok = false;
};

// Builds `shape` on a booted kernel.  Setup runs outside any CPU window, so
// no local clock moves before the measured region.
inline Built Build(Kernel& kernel, const Shape& shape) {
  Built out;
  if (shape.quantum != 0) {
    kernel.processes().set_quantum(shape.quantum);
  }
  PathWalker walker(&kernel.gates());
  auto create = [&](uint32_t i) {
    const Principal who = shape.person == nullptr ? Principal{"Bench", "Proj"}
                                                  : Principal{Numbered(shape.person, i), "Projx"};
    auto pid = kernel.processes().CreateProcess(Subject{who, Label::SystemLow(), 4});
    out.pids.push_back(pid.value_or(ProcessId{}));
    return pid.ok();
  };
  // The shared segment's author must exist before anyone initiates it, so
  // that shape creates every process first.
  const bool shared = shape.kind == Kind::kSharedSweep;
  Result<EntryId> shared_entry = Code::kNotFound;
  for (uint32_t i = 0; shared && i < shape.processes; ++i) {
    if (!create(i)) {
      return out;
    }
  }
  if (shared) {
    shared_entry = walker.CreateSegment(*kernel.processes().Context(out.pids[0]), shape.path,
                                        WorldAcl(), Label::SystemLow());
  }
  for (uint32_t i = 0; i < shape.processes; ++i) {
    if (!shared && !create(i)) {
      return out;
    }
    ProcContext* ctx = kernel.processes().Context(out.pids[i]);
    const Result<EntryId> entry =
        shared ? shared_entry
               : walker.CreateSegment(*ctx, Numbered(shape.path, i), WorldAcl(),
                                      Label::SystemLow());
    const Result<Segno> segno =
        entry.ok() ? kernel.gates().Initiate(*ctx, *entry) : Result<Segno>(entry.status());
    if (!segno.ok()) {
      return out;
    }
    out.segnos.push_back(*segno);
    std::vector<UserOp> program = Program(shape, i, *segno);
    if (shape.advance_when_done) {
      auto done = kernel.gates().CreateEventcount(*ctx, Label::SystemLow());
      if (!done.ok()) {
        return out;
      }
      program.push_back(UserOp::Advance(*done));
    }
    for (uint32_t p = 0; shape.populate && (!shared || i == 0) && p < shape.pages; ++p) {
      if (!kernel.gates().Write(*ctx, *segno, p * kPageWords, p + 1).ok()) {
        return out;
      }
    }
    if (!kernel.processes().SetProgram(out.pids[i], std::move(program)).ok()) {
      return out;
    }
    const uint32_t pin = i < shape.processes / 2 ? 0x3u : 0xcu;
    if (shape.kind == Kind::kPinnedMix && (pin & kernel.ctx().smp.PoolMask()) != 0 &&
        !kernel.processes().SetAffinity(out.pids[i], pin).ok()) {
      return out;
    }
  }
  out.ok = true;
  return out;
}

// The private sweep or compute/write mix on the 1973 supervisor.
inline Built Build(MonolithicSupervisor& sup, const Shape& shape) {
  using Op = MonolithicSupervisor::BaselineOp;
  Built out;
  if (shape.kind != Kind::kPrivateSweep && shape.kind != Kind::kComputeWrite) {
    return out;
  }
  for (uint32_t i = 0; i < shape.processes; ++i) {
    auto pid = sup.CreateProcess();
    auto uid = sup.CreatePath(Numbered(shape.path, i));
    if (!pid.ok() || !uid.ok()) {
      return out;
    }
    out.pids.push_back(*pid);
    for (uint32_t p = 0; shape.populate && p < shape.pages; ++p) {
      if (!sup.Write(*uid, p * kPageWords, p + 1).ok()) {
        return out;
      }
    }
    std::vector<Op> program;
    for (const UserOp& op : Program(shape, i, Segno{})) {
      const Op::Kind kind = op.kind == UserOp::Kind::kRead    ? Op::Kind::kRead
                            : op.kind == UserOp::Kind::kWrite ? Op::Kind::kWrite
                                                              : Op::Kind::kCompute;
      program.push_back(Op{kind, kind == Op::Kind::kCompute ? SegmentUid{} : *uid, op.offset,
                           op.value, op.compute});
    }
    if (!sup.SetProgram(*pid, std::move(program)).ok()) {
      return out;
    }
  }
  out.ok = true;
  return out;
}

// One measured region on either supervisor: the pool aligned to the global
// clock at its start (KernelContext::AlignToClock, so lock release points
// recorded by setup never read as contention), then every process run to
// completion.  `total` is the serialized work (global-clock delta),
// `makespan` the simulated-parallel completion time.
struct Region {
  Cycles total = 0;
  Cycles makespan = 0;
  bool ok = false;
};

template <typename Supervisor>
inline Region Measure(Supervisor& sup, uint64_t max_passes) {
  KernelContext& ctx = sup.ctx();
  const Cycles before = ctx.clock.now();
  const Cycles m0 = ctx.AlignToClock();
  bool ok = false;
  if constexpr (std::is_same_v<Supervisor, Kernel>) {
    ok = sup.processes().RunUntilQuiescent(max_passes).ok();
  } else {
    ok = sup.RunUntilQuiescent(max_passes).ok();
  }
  return Region{ctx.clock.now() - before, ctx.smp.Makespan() - m0, ok};
}

// Everything observable after a kernel run.
struct Snapshot {
  std::map<std::string, uint64_t, std::less<>> counters;
  std::vector<std::string> audit;
  Cycles clock = 0;
  Region region;
  std::vector<Word> values;    // each process's last-written word, read back
  std::vector<Word> expected;  // what those words were written as
  std::string trace_json;      // Chrome trace export; empty with tracing off
  bool all_done = false;
  bool ok = false;
};

// Builds and measures `shape` on a booted kernel, reads back each process's
// last-written word, and snapshots the rest.
inline Snapshot Run(Kernel& kernel, const Shape& shape, uint64_t max_passes) {
  Snapshot out;
  const Built built = Build(kernel, shape);
  out.region = built.ok ? Measure(kernel, max_passes) : Region{};
  if (!out.region.ok) {
    return out;
  }
  for (uint32_t i = 0; i < shape.processes; ++i) {
    const UserOp last = LastWrite(shape, i);
    if (last.kind != UserOp::Kind::kWrite) {
      continue;
    }
    auto word = kernel.gates().Read(*kernel.processes().Context(built.pids[i]),
                                    built.segnos[i], last.offset);
    if (!word.ok()) {
      return out;
    }
    out.values.push_back(*word);
    out.expected.push_back(last.value);
  }
  out.all_done = kernel.processes().AllDone();
  out.audit = kernel.AuditIntegrity();
  out.counters = kernel.metrics().counters();
  out.clock = kernel.clock().now();
  if (kernel.ctx().trace.enabled()) {
    out.trace_json = TraceExporter::Export(kernel.ctx().trace);
  }
  out.ok = true;
  return out;
}

// Boots a kernel under `config` and runs `shape` on it.
inline Snapshot Run(const KernelConfig& config, const Shape& shape, uint64_t max_passes) {
  Kernel kernel{config};
  return kernel.Boot().ok() ? Run(kernel, shape, max_passes) : Snapshot{};
}

}  // namespace workload
}  // namespace mks

#endif  // MKS_BENCH_WORKLOAD_H_
