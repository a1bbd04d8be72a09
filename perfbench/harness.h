// Shared machinery of the repository benchmark: host stopwatches, the span
// recorder of the traced run, exact percentiles, the run digest, counter
// snapshots, and the closed loop that runs each operation in one
// anchored accrual window on the furthest-behind virtual CPU.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/answering/service.h"
#include "src/common/rng.h"
#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace perfbench {

using mks::Cycles;

// Wall-clock nanoseconds (span boundaries and the run's time budget).
inline uint64_t HostNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// CPU nanoseconds consumed by the calling thread.  The benchmark is one
// host thread, so this is its wall time minus the time other processes on
// the machine took from it.
inline uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

// One phase's host time, separate from every other phase's, in thread CPU
// time.
class Stopwatch {
 public:
  Stopwatch() : start_(ThreadCpuNs()) {}
  uint64_t Ns() const { return ThreadCpuNs() - start_; }
  double Seconds() const { return static_cast<double>(Ns()) / 1e9; }

 private:
  uint64_t start_;
};

// Host-speed probe: CPU seconds of a fixed, memory-bound loop that shares no
// code with the kernel.  The machine's speed drifts by tens of percent
// between runs on shared hosts; host times are scaled by
// kCalibrationReferenceSeconds / CalibrationSeconds() measured around the
// same repetition, which reports them in seconds of a machine on which the
// probe takes the reference time.
double CalibrationSeconds();
// The probe's typical time on the 4-vCPU 2.1 GHz VM the bounds were set on.
inline constexpr double kCalibrationReferenceSeconds = 0.020;

// The modules a span can be charged to.  kBench is the benchmark's own
// code (the root span of each operation).
enum class Layer : uint8_t { kBench, kNet, kAnswering, kFs, kGates, kUproc, kCount };
const char* LayerName(Layer layer);

// One call into a module, as seen from the benchmark.  Virtual times are the
// kernel's global clock, whose advance across a synchronous call is exactly
// the cycles that call charged.
struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  int32_t parent = -1;   // index of the enclosing span, -1 for a root
  uint64_t request = 0;  // terminal, client or process the call serves
  uint64_t host_start = 0;
  uint64_t host_end = 0;
  Cycles v_start = 0;
  Cycles v_end = 0;
};

// In-memory span recorder.  Disabled, Open/Close only test a flag, so the
// untraced run pays nothing measurable; spans read clocks and never charge
// them, so tracing cannot move virtual time.  Enabled, it records the spans
// of one request in kSampleEvery (by request id), which bounds its memory on
// the longest runs while every layer still gets thousands of samples.
class SpanLog {
 public:
  static constexpr uint64_t kSampleEvery = 8;

  SpanLog(bool enabled, const mks::Clock* clock) : enabled_(enabled), clock_(clock) {}

  int32_t Open(const char* name, Layer layer, uint64_t request);
  void Close(int32_t index);
  std::vector<Span> Take() { return std::move(spans_); }

 private:
  bool enabled_;
  const mks::Clock* clock_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, Layer layer, uint64_t request)
      : log_(log), index_(log.Open(name, layer, request)) {}
  ~SpanScope() { log_.Close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  int32_t index_;
};

using Counters = std::map<std::string, uint64_t, std::less<>>;
// Per-counter advance from `before` to `after` (counters only grow).
Counters Delta(const Counters& before, const Counters& after);
uint64_t Get(const Counters& counters, std::string_view name);
// Sum of every counter whose name starts with `prefix` and ends with `suffix`.
uint64_t SumMatching(const Counters& counters, std::string_view prefix, std::string_view suffix);

// FNV-1a over everything a run computes in virtual time.
class Digest {
 public:
  void Add(uint64_t value);
  void Add(std::string_view text);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Exact nearest-rank percentile of raw samples (p in [0, 1]).
uint64_t Percentile(std::vector<uint64_t> samples, double p);
double Median(std::vector<double> values);

// Everything one repetition of a workload produces.
struct RunResult {
  std::string error;  // empty when the correctness gate passed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ops = 0;  // ops completed in the measured phase
  uint16_t cpus = 0;
  Cycles makespan = 0;         // smp.Makespan() advance over the measured phase
  Cycles vcycles = 0;          // global-clock advance: serialized work
  Cycles idle_cpu_cycles = 0;  // CPU-cycles with no work to run
  std::vector<uint64_t> latencies;  // per-op latency from due time, cycles
  Counters delta;                   // counter advance over the measured phase
  uint64_t walker_reads = 0;        // PathWalker gate-mix attribution
  uint64_t walker_writes = 0;
  uint64_t bench_advances = 0;      // eventcount advances the benchmark made itself
  double setup_s = 0;
  double measure_s = 0;
  std::vector<Span> spans;  // traced runs only
  uint64_t digest = 0;

  // Folds every virtual-time output into `digest`.
  void Seal();
};

// The modelled, concurrency-safe configuration every workload starts from:
// priced interconnect, sharded run queues with steal, MCS scheduler locks,
// passive reader-writer naming, slab process slots, an armed stall
// watchdog.  Workloads size the machine on top of it.
mks::KernelConfig ModelledKernelConfig(uint16_t cpus);
// Sharded session tables under MCS locks and the skeleton cache.
mks::AnsweringConfig ModelledAnsweringConfig(uint16_t cpus);

// The measured phase: a barrier into it (every local clock aligned and
// advanced to the global clock, so set-up never reads as contention against
// measured windows), snapshots of the counters, clocks and walker gate mix,
// and the phase's own stopwatch.
class MeasuredPhase {
 public:
  MeasuredPhase(mks::Kernel& kernel, const mks::PathWalker& walker);
  // The pool's makespan when the phase began.
  Cycles start() const { return makespan0_; }
  // Fills the phase's host time, virtual advances, counter deltas and walker
  // gate mix into `out`.
  void Finish(RunResult* out) const;

 private:
  mks::Kernel& kernel_;
  const mks::PathWalker& walker_;
  Cycles makespan0_;
  Cycles clock0_;
  Counters counters0_;
  mks::PathWalker::GateMix mix0_;
  Stopwatch watch_;
};

// A closed loop of clients in anchored windows (the P16/P18 idiom).  Each
// operation goes to the client whose next one is due first and runs on the
// furthest-behind CPU, starting at max(due, that CPU's clock); a CPU behind
// the due time idles forward to it.  `op` returns false on a failed
// operation; `gap` gives the client's think time before its next one.
// Fills the attempt and failure counts, the latency from each due time, and
// the idle CPU-cycles into `out`.
void RunClosedLoop(mks::Kernel& kernel, const std::vector<Cycles>& first_due, uint64_t count,
                   const std::function<bool(uint32_t client)>& op,
                   const std::function<Cycles(uint32_t client)>& gap, RunResult* out);

// Exponentially distributed cycles with the given mean.
Cycles ExpCycles(mks::Rng& rng, double mean);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
