#include "harness.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <queue>

namespace perfbench {
namespace {
// Keeps the calibration loop's result observable.
volatile uint64_t calibration_sink = 0;
// Cycles per cross-CPU line transfer, for the interconnect and every lock.
constexpr Cycles kConnectCost = 400;
}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kNet: return "net";
    case Layer::kAnswering: return "answering";
    case Layer::kFs: return "fs";
    case Layer::kGates: return "gates";
    case Layer::kUproc: return "uproc";
    case Layer::kCount: break;
  }
  return "?";
}

int32_t SpanLog::Open(const char* name, Layer layer, uint64_t request) {
  if (!enabled_ || request % kSampleEvery != 0) {
    return -1;
  }
  const int32_t index = static_cast<int32_t>(spans_.size());
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.v_start = clock_->now();
  spans_.push_back(span);
  open_.push_back(index);
  spans_.back().host_start = HostNs();
  return index;
}

void SpanLog::Close(int32_t index) {
  if (index < 0) {
    return;
  }
  const uint64_t host_end = HostNs();
  Span& span = spans_[static_cast<size_t>(index)];
  span.host_end = host_end;
  span.v_end = clock_->now();
  open_.pop_back();
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    out.emplace(name, value - Get(before, name));
  }
  return out;
}

uint64_t Get(const Counters& counters, std::string_view name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

uint64_t SumMatching(const Counters& counters, std::string_view prefix, std::string_view suffix) {
  uint64_t sum = 0;
  for (auto it = counters.lower_bound(prefix); it != counters.end(); ++it) {
    const std::string& name = it->first;
    if (name.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += it->second;
    }
  }
  return sum;
}

void Digest::Add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::Add(std::string_view text) {
  for (char c : text) {
    hash_ ^= static_cast<uint8_t>(c);
    hash_ *= 0x100000001b3ULL;
  }
  Add(text.size());
}

uint64_t Percentile(std::vector<uint64_t> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void RunResult::Seal() {
  Digest d;
  d.Add(attempted);
  d.Add(failed);
  d.Add(ops);
  d.Add(makespan);
  d.Add(vcycles);
  d.Add(idle_cpu_cycles);
  d.Add(walker_reads);
  d.Add(walker_writes);
  d.Add(bench_advances);
  for (uint64_t sample : latencies) {
    d.Add(sample);
  }
  for (const auto& [name, value] : delta) {
    d.Add(name);
    d.Add(value);
  }
  digest = d.value();
}

mks::KernelConfig ModelledKernelConfig(uint16_t cpus) {
  mks::KernelConfig config;
  config.cpu_count = cpus;
  config.connect_cost = kConnectCost;
  config.sharded_runqueues = true;
  config.steal = true;
  config.lock_policy = mks::LockPolicy::kMcs;
  config.read_policy = mks::ReadPolicy::kPassiveRw;
  config.slab_processes = true;
  config.profile.stall_rounds = 10000;
  return config;
}

mks::AnsweringConfig ModelledAnsweringConfig(uint16_t cpus) {
  mks::AnsweringConfig config;
  config.table_mode = mks::SessionTableMode::kSharded;
  config.table_lock_policy = mks::LockPolicy::kMcs;
  config.table_line_transfer_cost = kConnectCost;
  config.skeleton_cache = true;
  config.cache_lock = mks::SharedLockConfig{mks::ReadPolicy::kPassiveRw, kConnectCost, 0, cpus};
  return config;
}

MeasuredPhase::MeasuredPhase(mks::Kernel& kernel, const mks::PathWalker& walker)
    : kernel_(kernel), walker_(walker) {
  mks::KernelContext& kctx = kernel.ctx();
  kctx.smp.AlignAll();
  if (kctx.clock.now() > kctx.smp.Makespan()) {
    kctx.smp.AdvanceAll(kctx.clock.now() - kctx.smp.Makespan());
  }
  makespan0_ = kctx.smp.Makespan();
  clock0_ = kctx.clock.now();
  counters0_ = kernel.metrics().counters();
  mix0_ = walker.gate_mix();
  watch_ = Stopwatch();
}

void MeasuredPhase::Finish(RunResult* out) const {
  out->measure_s = watch_.Seconds();
  out->makespan = kernel_.ctx().smp.Makespan() - makespan0_;
  out->vcycles = kernel_.clock().now() - clock0_;
  out->delta = Delta(counters0_, kernel_.metrics().counters());
  out->walker_reads = walker_.gate_mix().read_calls - mix0_.read_calls;
  out->walker_writes = walker_.gate_mix().write_calls - mix0_.write_calls;
}

void RunClosedLoop(mks::Kernel& kernel, const std::vector<Cycles>& first_due, uint64_t count,
                   const std::function<bool(uint32_t client)>& op,
                   const std::function<Cycles(uint32_t client)>& gap, RunResult* out) {
  mks::KernelContext& kctx = kernel.ctx();
  using Due = std::pair<Cycles, uint32_t>;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> ready;
  for (uint32_t client = 0; client < first_due.size(); ++client) {
    ready.push({first_due[client], client});
  }
  while (out->attempted < count) {
    const auto [due, client] = ready.top();
    ready.pop();
    const uint16_t cpu = kctx.smp.NextCpu();
    const Cycles local = kctx.smp.local_now(cpu);
    if (local < due) {
      kctx.smp.Accrue(cpu, due - local);
      out->idle_cpu_cycles += due - local;
    }
    kctx.current_cpu = cpu;
    kctx.trace.SetCpu(cpu);
    kctx.AnchorWindow();
    const Cycles t0 = kctx.clock.now();
    const bool ok = op(client);
    kctx.smp.Accrue(cpu, kctx.clock.now() - t0);
    const Cycles done = kctx.smp.local_now(cpu);
    ++out->attempted;
    out->failed += ok ? 0 : 1;
    out->ops += ok ? 1 : 0;
    out->latencies.push_back(done - due);
    ready.push({done + gap(client), client});
  }
}

double CalibrationSeconds() {
  // Random read-modify-writes over 8 MiB with an xorshift index: cache
  // misses and dependent arithmetic, a fixed amount of work.  The buffer is
  // mapped for the probe alone and unmapped after it, so it never adds to
  // the kernel's peak memory or to the allocator's state.
  constexpr size_t kWords = size_t{1} << 20;
  constexpr size_t kBytes = kWords * sizeof(uint64_t);
  constexpr int kSteps = 4000000;
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    std::perror("calibration buffer");
    std::abort();
  }
  uint64_t* buffer = static_cast<uint64_t*>(mem);
  std::memset(buffer, 0, kBytes);  // fault every page in before timing
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t acc = 0;
  const Stopwatch watch;
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = buffer[x & (kWords - 1)];
    acc += slot;
    slot = acc ^ x;
  }
  const double seconds = watch.Seconds();
  calibration_sink = acc;
  munmap(mem, kBytes);
  return seconds;
}

Cycles ExpCycles(mks::Rng& rng, double mean) {
  // 1 - u lies in (0, 1], so the logarithm is finite.
  return static_cast<Cycles>(-std::log(1.0 - rng.NextDouble()) * mean);
}

}  // namespace perfbench
