// fault_storm: batch paging under memory pressure.
//
// Four CPUs, asynchronous paging and the full paging pipeline (pre-cleaning,
// batched disk queues, readahead).  More processes than virtual processors
// run under RunUntilQuiescent over a working set three times memory_frames
// (at twice, pre-cleaning and readahead keep the storm resident: about 6
// faults per 1000 references).
// Even-numbered processes sweep their segment sequentially, odd-numbered
// ones touch seeded random pages; a fixed share of references are writes,
// and the last two processes share one segment (on disjoint words, so every
// final value is known).
//
// Batch, closed loop per process: each program is a run of jobs of kJobRefs
// references, and each job after the first waits on the process's own
// eventcount.  The benchmark steps the scheduler one pass at a time; when a
// process has finished a job, it records the job's latency and releases the
// next one by advancing the eventcount, so the next job is due at the
// previous one's completion.  Times are read on the pool's makespan at pass
// ends, which bounds each completion from above by at most one pass.  One op
// is one user memory reference; latency is per job.
#include <algorithm>
#include <unordered_map>

#include "workloads.h"

namespace perfbench {
namespace {

using mks::Cycles;

constexpr uint16_t kCpus = 4;
constexpr uint32_t kFrames = 96;
constexpr uint32_t kProcesses = 12;
constexpr uint32_t kSegments = kProcesses - 1;  // the last two processes share one
constexpr uint32_t kPagesPerSegment = 3 * kFrames / kSegments;
constexpr uint32_t kWordsUsed = 64;  // words per page the programs touch
// The job size, the process count and the write share are assumed, not
// taken from a measured Multics trace.
constexpr uint32_t kJobRefs = 32;
constexpr uint32_t kJobs = 1200;
constexpr double kWriteShare = 0.25;
constexpr uint64_t kPassLimit = 10000000;

mks::KernelConfig FaultStormConfig() {
  mks::KernelConfig config = ModelledKernelConfig(kCpus);
  config.memory_frames = kFrames;
  config.records_per_pack = 8192;
  config.async_paging = true;
  config.paging_pipeline = mks::PagingPipeline::Full();
  return config;
}

uint32_t SegmentOf(uint32_t proc) { return proc < kSegments ? proc : kSegments - 1; }

class FaultStorm {
 public:
  FaultStorm(uint64_t seed, bool trace)
      : rng_(seed * 0x2545f4914f6cdd1dULL + 7),
        kernel_(FaultStormConfig()),
        spans_(trace, &kernel_.clock()),
        walker_(&kernel_.gates()) {}

  RunResult Run(const Stopwatch& setup);

 private:
  std::string SetUp();
  std::string Verify();
  // A reference made outside the scheduler (population and read-back): when
  // the page is in transit, the machine runs forward until it arrives.
  mks::Status Reference(mks::ProcContext& ctx, mks::Segno segno, uint32_t offset, bool write,
                        mks::Word in, mks::Word* out);
  std::vector<mks::UserOp> Program(uint32_t proc, mks::Segno segno, mks::EventcountId ec);
  // Program positions: job j's references, then (except after the last job)
  // the wait for its release.
  static uint64_t JobEnd(uint64_t job) { return job * (kJobRefs + 1) + kJobRefs; }
  static uint64_t RefsExecuted(uint64_t executed) {
    return executed - std::min<uint64_t>(kJobs - 1, executed / (kJobRefs + 1));
  }
  static uint64_t Key(uint32_t segment, uint32_t offset) {
    return (static_cast<uint64_t>(segment) << 32) | offset;
  }

  mks::Rng rng_;
  mks::Kernel kernel_;
  SpanLog spans_;
  mks::PathWalker walker_;
  std::vector<mks::ProcessId> pids_;
  std::vector<mks::EventcountId> releases_;  // per process: jobs released so far
  std::unordered_map<uint64_t, mks::Word> shadow_;  // (segment, offset) -> last write
};

mks::Status FaultStorm::Reference(mks::ProcContext& ctx, mks::Segno segno, uint32_t offset,
                                  bool write, mks::Word in, mks::Word* out) {
  mks::KernelContext& kctx = kernel_.ctx();
  for (int attempt = 0; attempt < 1000; ++attempt) {
    mks::Status st;
    if (write) {
      st = kernel_.gates().Write(ctx, segno, offset, in);
    } else {
      auto value = kernel_.gates().Read(ctx, segno, offset);
      st = value.status();
      if (value.ok()) {
        *out = *value;
      }
    }
    if (st.code() != mks::Code::kBlocked) {
      return st;
    }
    if (!kctx.events.empty() && kctx.events.next_due() > kctx.clock.now()) {
      const Cycles idle = kctx.events.next_due() - kctx.clock.now();
      kctx.clock.Advance(idle);
      kctx.smp.AdvanceAll(idle);
    }
    kctx.events.RunDue(kctx.clock.now());
    kernel_.vprocs().RunKernelTasks();
  }
  return mks::Status(mks::Code::kInternal, "page never arrived");
}

std::vector<mks::UserOp> FaultStorm::Program(uint32_t proc, mks::Segno segno,
                                             mks::EventcountId ec) {
  const uint32_t segment = SegmentOf(proc);
  const bool shared = proc + 2 >= kProcesses;
  const bool sequential = proc % 2 == 0;
  std::vector<mks::UserOp> program;
  program.reserve(kJobs * (kJobRefs + 1));
  const uint32_t start = static_cast<uint32_t>(rng_.NextBelow(kPagesPerSegment));
  for (uint32_t n = 0; n < kJobs * kJobRefs; ++n) {
    if (n > 0 && n % kJobRefs == 0) {
      program.push_back(mks::UserOp::Await(ec, n / kJobRefs));
    }
    const uint32_t page = sequential ? (start + n) % kPagesPerSegment
                                     : static_cast<uint32_t>(rng_.NextBelow(kPagesPerSegment));
    uint32_t word = 1 + static_cast<uint32_t>(rng_.NextBelow(kWordsUsed - 1));
    if (shared) {
      word = (word & ~1u) + (proc % 2);  // the two sharers own disjoint words
    }
    const uint32_t offset = page * mks::kPageWords + word;
    if (rng_.NextBool(kWriteShare)) {
      const mks::Word value = rng_.Next() & 0xffffffffu;
      program.push_back(mks::UserOp::Write(segno, offset, value));
      shadow_[Key(segment, offset)] = value;
    } else {
      program.push_back(mks::UserOp::Read(segno, offset));
    }
  }
  return program;
}

std::string FaultStorm::SetUp() {
  if (!kernel_.Boot().ok()) {
    return "boot failed";
  }
  mks::Acl acl;
  acl.Add(mks::AclEntry{"*", "Batch", mks::AccessModes::RW()});
  std::vector<mks::Segno> segnos;
  for (uint32_t p = 0; p < kProcesses; ++p) {
    auto pid = kernel_.processes().CreateProcess(
        mks::Subject{mks::Principal{"Job" + std::to_string(p), "Batch"},
                     mks::Label::SystemLow(), 4});
    if (!pid.ok()) {
      return "process creation";
    }
    pids_.push_back(*pid);
    mks::ProcContext& ctx = *kernel_.processes().Context(*pid);
    const std::string path = ">batch>seg" + std::to_string(SegmentOf(p));
    if (p < kSegments) {
      if (!walker_.CreateSegment(ctx, path, acl, mks::Label::SystemLow()).ok()) {
        return "segment creation";
      }
    }
    auto segno = walker_.Initiate(ctx, path);
    if (!segno.ok()) {
      return "initiate";
    }
    segnos.push_back(*segno);
    auto ec = kernel_.gates().CreateEventcount(ctx, mks::Label::SystemLow());
    if (!ec.ok()) {
      return "eventcount";
    }
    releases_.push_back(*ec);
    if (p < kSegments) {
      // Word 0 of every page: the pages exist on disk before the storm.
      for (uint32_t page = 0; page < kPagesPerSegment; ++page) {
        const mks::Word value = (static_cast<mks::Word>(p) << 16) | page;
        if (!Reference(ctx, *segno, page * mks::kPageWords, true, value, nullptr).ok()) {
          return "population";
        }
        shadow_[Key(p, page * mks::kPageWords)] = value;
      }
    }
  }
  for (uint32_t p = 0; p < kProcesses; ++p) {
    if (!kernel_.processes().SetProgram(pids_[p], Program(p, segnos[p], releases_[p])).ok()) {
      return "set program";
    }
  }
  return "";
}

std::string FaultStorm::Verify() {
  for (mks::ProcessId pid : pids_) {
    if (kernel_.processes().state(pid) != mks::ProcState::kDone) {
      return "a process did not finish: " +
             kernel_.processes().stats(pid).last_error.message();
    }
  }
  // Read back every word ever written, from a fresh process.
  auto checker = kernel_.processes().CreateProcess(mks::Subject{
      mks::Principal{"Checker", "Batch"}, mks::Label::SystemLow(), 4});
  if (!checker.ok()) {
    return "checker process";
  }
  mks::ProcContext& ctx = *kernel_.processes().Context(*checker);
  std::vector<mks::Segno> segnos;
  for (uint32_t s = 0; s < kSegments; ++s) {
    auto segno = walker_.Initiate(ctx, ">batch>seg" + std::to_string(s));
    if (!segno.ok()) {
      return "checker initiate";
    }
    segnos.push_back(*segno);
  }
  for (const auto& [key, expected] : shadow_) {
    const uint32_t segment = static_cast<uint32_t>(key >> 32);
    const uint32_t offset = static_cast<uint32_t>(key);
    mks::Word value = 0;
    if (!Reference(ctx, segnos[segment], offset, false, 0, &value).ok() || value != expected) {
      return "segment " + std::to_string(segment) + " lost the write at offset " +
             std::to_string(offset);
    }
  }
  if (!kernel_.AuditIntegrity().empty()) {
    return "integrity audit: " + kernel_.AuditIntegrity().front();
  }
  if (!kernel_.Shutdown().ok()) {
    return "shutdown failed";
  }
  return "";
}

RunResult FaultStorm::Run(const Stopwatch& setup) {
  RunResult out;
  out.cpus = kCpus;
  out.error = SetUp();
  out.setup_s = setup.Seconds();
  if (!out.error.empty()) {
    return out;
  }
  const MeasuredPhase phase(kernel_, walker_);
  mks::UserProcessManager& procs = kernel_.processes();
  std::vector<uint64_t> job(kProcesses, 0);  // each process's current job
  std::vector<Cycles> job_due(kProcesses, phase.start());
  for (uint64_t pass = 0;; ++pass) {
    mks::Status st;
    {
      SpanScope span(spans_, "scheduler_pass", Layer::kUproc, pass);
      st = procs.RunUntilQuiescent(1);
    }
    const Cycles now = kernel_.ctx().smp.Makespan();
    for (uint32_t p = 0; p < kProcesses; ++p) {
      if (job[p] < kJobs && procs.stats(pids_[p]).ops_executed >= JobEnd(job[p])) {
        out.latencies.push_back(now - job_due[p]);
        job_due[p] = now;
        if (++job[p] < kJobs) {
          kernel_.ctx().eventcounts.Advance(releases_[p]);
          ++out.bench_advances;
        }
      }
    }
    if (st.ok()) {
      break;
    }
    if (st.code() != mks::Code::kResourceExhausted || pass >= kPassLimit) {
      out.error = "scheduler: " + st.message();
      return out;
    }
  }
  phase.Finish(&out);
  out.attempted = static_cast<uint64_t>(kProcesses) * kJobs * kJobRefs;
  for (mks::ProcessId pid : pids_) {
    out.ops += RefsExecuted(procs.stats(pid).ops_executed);
  }
  out.failed = out.attempted - out.ops;
  // The pool idles as one while every process waits on the disk.
  out.idle_cpu_cycles = Get(out.delta, "uproc.idle_cycles") * kCpus;
  out.spans = spans_.Take();
  out.Seal();
  out.error = Verify();
  return out;
}

}  // namespace

RunResult RunFaultStorm(uint64_t seed, bool trace) {
  const Stopwatch setup;
  return FaultStorm(seed, trace).Run(setup);
}

}  // namespace perfbench
