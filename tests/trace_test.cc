// Tests for the virtual-time tracer (src/sim/trace.h).
//
// Load-bearing properties:
//  * reproducibility — because records are stamped from the deterministic
//    global clock, two runs of the same 4-CPU workload export byte-identical
//    Chrome traces;
//  * invisibility — enabling the tracer never changes what the kernel
//    computes: counters, audit, and the clock match a trace-off run exactly
//    (tracing charges no cycles and keeps its names out of the counter
//    store);
//  * ring semantics — bounded per-CPU rings drop oldest-first and count
//    what they dropped;
//  * histogram semantics — log2 buckets with exact boundaries, and
//    percentile readback returns the upper bound of the bucket at rank.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/sim/trace.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// Kernel-level: determinism and invisibility at 4 CPUs.
// ---------------------------------------------------------------------------

struct TracedRun : workload::Snapshot {
  uint64_t fault_hist_count = 0;
  uint64_t dropped = 0;
};

// Fault-heavy mixed workload at 4 CPUs, traced or not.
TracedRun RunTraced(bool trace_enabled) {
  KernelConfig config;
  config.cpu_count = 4;
  config.vp_count = 6;
  config.memory_frames = 48;  // 6 procs x 10 pages = 60 > 48: faults happen
  config.trace.enabled = trace_enabled;
  Kernel kernel{config};
  TracedRun out;
  if (!kernel.Boot().ok()) {
    return out;
  }
  static_cast<workload::Snapshot&>(out) = workload::Run(kernel, TestMix(60), 1000000);
  out.fault_hist_count = kernel.metrics().HistCount("fault.service_cycles");
  for (uint16_t cpu = 0; cpu < kernel.ctx().trace.cpu_count(); ++cpu) {
    out.dropped += kernel.ctx().trace.dropped(cpu);
  }
  return out;
}

TEST(TraceDeterminism, TwoTracedRunsAtFourCpusExportIdenticalJson) {
  const TracedRun a = RunTraced(true);
  const TracedRun b = RunTraced(true);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  // The whole exported trace — every timestamp, duration, lane, and arg —
  // must be byte-identical: the stamps come from the deterministic global
  // clock, so any divergence means tracing consulted real time or memory
  // layout.
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_GT(a.trace_json.size(), 2u);
  EXPECT_GT(a.fault_hist_count, 0u);  // the workload really faulted
}

TEST(TraceInvisibility, EnablingTheTracerChangesNothingTheKernelComputes) {
  const TracedRun off = RunTraced(false);
  const TracedRun on = RunTraced(true);
  ASSERT_TRUE(off.ok);
  ASSERT_TRUE(on.ok);
  // Tracing charges no cycles and interns its names outside the counter
  // store, so the full counter dump and the final clock match exactly.
  EXPECT_EQ(off.counters, on.counters);
  EXPECT_EQ(off.clock, on.clock);
  // With the knob off nothing records or observes.
  EXPECT_EQ(off.fault_hist_count, 0u);
  EXPECT_TRUE(TraceExporter::Export(Tracer{nullptr, nullptr}).find("\"ph\":\"X\"") ==
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Unit-level: ring overflow.
// ---------------------------------------------------------------------------

TEST(TraceRing, DropsOldestAndCountsDropped) {
  Clock clock;
  Metrics metrics;
  Tracer tracer(&clock, &metrics);
  TraceConfig config;
  config.enabled = true;
  config.ring_capacity = 8;
  tracer.Enable(1, config);
  const TraceEventId ev = tracer.InternEvent("tick");
  for (uint32_t i = 0; i < 20; ++i) {
    clock.Advance(1);
    tracer.Instant(ev, /*proc=*/i);
  }
  const std::vector<TraceRecord> kept = tracer.Snapshot(0);
  ASSERT_EQ(kept.size(), 8u);
  // Oldest-first: the survivors are pushes 12..19 (ts 13..20).
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].proc, 12 + i);
    EXPECT_EQ(kept[i].ts, 13 + i);
  }
  EXPECT_EQ(tracer.dropped(0), 12u);
  // A second lane never received records.
  EXPECT_EQ(tracer.dropped(1), 0u);
  EXPECT_TRUE(tracer.Snapshot(1).empty());
}

TEST(TraceRing, DisabledTracerRecordsNothing) {
  Clock clock;
  Metrics metrics;
  Tracer tracer(&clock, &metrics);
  tracer.Enable(2, TraceConfig{});  // enabled defaults to false
  const TraceEventId ev = tracer.InternEvent("tick");
  tracer.Instant(ev);
  tracer.CloseSpan(tracer.Begin(), ev);
  EXPECT_TRUE(tracer.Snapshot(0).empty());
  EXPECT_EQ(tracer.dropped(0), 0u);
}

// ---------------------------------------------------------------------------
// Unit-level: log2 histogram boundaries and percentiles.
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds only the value 0; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(Metrics::BucketOf(0), 0u);
  EXPECT_EQ(Metrics::BucketOf(1), 1u);
  EXPECT_EQ(Metrics::BucketOf(2), 2u);
  EXPECT_EQ(Metrics::BucketOf(3), 2u);
  EXPECT_EQ(Metrics::BucketOf(4), 3u);
  EXPECT_EQ(Metrics::BucketOf(7), 3u);
  EXPECT_EQ(Metrics::BucketOf(8), 4u);
  EXPECT_EQ(Metrics::BucketOf((1ull << 20) - 1), 20u);
  EXPECT_EQ(Metrics::BucketOf(1ull << 20), 21u);
  EXPECT_EQ(Metrics::BucketOf(UINT64_MAX), 64u);
  // Upper bounds are what percentile readback reports.
  EXPECT_EQ(Metrics::BucketUpper(0), 0u);
  EXPECT_EQ(Metrics::BucketUpper(3), 7u);
  EXPECT_EQ(Metrics::BucketUpper(64), UINT64_MAX);
}

TEST(Histogram, PercentileReadsBucketUpperAtRank) {
  Metrics metrics;
  const HistId h = metrics.InternHistogram("test.latency");
  for (uint64_t v : {1ull, 2ull, 4ull, 8ull}) {
    metrics.Observe(h, v);
  }
  EXPECT_EQ(metrics.HistCount("test.latency"), 4u);
  // rank(p) = max(1, ceil(p * 4)); the answer is the upper bound of the
  // bucket holding the rank-th smallest observation.
  EXPECT_EQ(metrics.HistPercentile("test.latency", 0.50), 3u);   // rank 2 -> bucket of 2
  EXPECT_EQ(metrics.HistPercentile("test.latency", 0.25), 1u);   // rank 1 -> bucket of 1
  EXPECT_EQ(metrics.HistPercentile("test.latency", 0.95), 15u);  // rank 4 -> bucket of 8
  EXPECT_EQ(metrics.HistPercentile("test.latency", 0.99), 15u);
}

TEST(Histogram, StaysOutOfTheCounterStore) {
  Metrics metrics;
  const HistId h = metrics.InternHistogram("test.hidden");
  metrics.Observe(h, 42);
  // Histograms live in their own store: the counter dump is untouched, so
  // pre-tracer tests comparing counters() exactly keep passing.
  EXPECT_TRUE(metrics.counters().empty());
  ASSERT_EQ(metrics.histogram_names().size(), 1u);
  EXPECT_EQ(metrics.histogram_names()[0], "test.hidden");
  // Unknown names read as empty.
  EXPECT_EQ(metrics.HistCount("test.absent"), 0u);
  EXPECT_EQ(metrics.HistPercentile("test.absent", 0.5), 0u);
}

}  // namespace
}  // namespace mks
