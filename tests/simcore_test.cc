// Tests for the flattened simulator core (the host-throughput refactor).
//
// The refactor's contract is byte-identical virtual-time output: the
// tournament-tree dispatcher, the pooled event queue, and the lazy page fill
// are host-side reorganizations only.  Three layers of evidence:
//  * unit — the O(1) min-structure agrees with a reference linear scan under
//    arbitrary Accrue/AdvanceAll/AlignAll/masked-query sequences (the
//    reference IS the old dispatcher, so this is old-vs-new selection);
//  * unit — the pooled event queue keeps FIFO tie-break order, survives
//    closures past the inline buffer, and recycles slots;
//  * end-to-end — double runs of the P11/P12/P13 workload shapes at 1, 4,
//    and 16 CPUs produce byte-identical counter snapshots and trace exports.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/sim/cpu_sched.h"
#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/sim/trace.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// CpuInterleave: tournament tree vs the reference linear scan.
// ---------------------------------------------------------------------------

// The pre-refactor dispatcher: per-CPU absolute clocks, linear scans.
struct ReferenceInterleave {
  explicit ReferenceInterleave(uint16_t n) : locals(n, 0) {}

  uint16_t NextCpu() const {
    uint16_t best = 0;
    for (uint16_t k = 1; k < locals.size(); ++k) {
      if (locals[k] < locals[best]) {
        best = k;
      }
    }
    return best;
  }
  uint16_t NextCpuIn(uint32_t mask) const {
    uint16_t best = UINT16_MAX;
    for (uint16_t k = 0; k < locals.size(); ++k) {
      if (((mask >> k) & 1u) == 0) {
        continue;
      }
      if (best == UINT16_MAX || locals[k] < locals[best]) {
        best = k;
      }
    }
    return best;
  }
  void Accrue(uint16_t cpu, Cycles delta) { locals[cpu] += delta; }
  void AdvanceAll(Cycles delta) {
    for (Cycles& c : locals) {
      c += delta;
    }
  }
  void AlignAll() {
    const Cycles m = Makespan();
    for (Cycles& c : locals) {
      c = m;
    }
  }
  Cycles Makespan() const {
    Cycles m = 0;
    for (Cycles c : locals) {
      m = std::max(m, c);
    }
    return m;
  }

  std::vector<Cycles> locals;
};

void ExpectAgreement(const CpuInterleave& tree, const ReferenceInterleave& ref,
                     uint32_t some_mask) {
  ASSERT_EQ(tree.count(), ref.locals.size());
  EXPECT_EQ(tree.NextCpu(), ref.NextCpu());
  EXPECT_EQ(tree.Makespan(), ref.Makespan());
  for (uint16_t k = 0; k < tree.count(); ++k) {
    EXPECT_EQ(tree.local_now(k), ref.locals[k]) << "cpu " << k;
  }
  const uint32_t pool = tree.count() >= 32 ? ~0u : (1u << tree.count()) - 1u;
  if ((some_mask & pool) != 0) {
    EXPECT_EQ(tree.NextCpuIn(some_mask), ref.NextCpuIn(some_mask & pool));
  }
}

TEST(CpuInterleaveTree, MatchesReferenceScanUnderMixedOps) {
  for (uint16_t cpus : {1, 2, 3, 4, 7, 8, 16}) {
    Metrics metrics;
    CpuInterleave tree(cpus, &metrics);
    ReferenceInterleave ref(cpus);
    std::mt19937 rng(12345u + cpus);
    for (int step = 0; step < 500; ++step) {
      const uint32_t pick = rng() % 100;
      if (pick < 70) {
        const uint16_t cpu = static_cast<uint16_t>(rng() % cpus);
        const Cycles delta = rng() % 1000;
        tree.Accrue(cpu, delta);
        ref.Accrue(cpu, delta);
      } else if (pick < 85) {
        const Cycles delta = rng() % 500;
        tree.AdvanceAll(delta);
        ref.AdvanceAll(delta);
      } else {
        tree.AlignAll();
        ref.AlignAll();
      }
      ExpectAgreement(tree, ref, rng());
    }
  }
}

TEST(CpuInterleaveTree, TiesResolveToLowestIndex) {
  Metrics metrics;
  CpuInterleave tree(4, &metrics);
  EXPECT_EQ(tree.NextCpu(), 0u);  // all zero: lowest index wins
  tree.Accrue(0, 10);
  EXPECT_EQ(tree.NextCpu(), 1u);
  tree.Accrue(1, 10);
  tree.Accrue(2, 10);
  tree.Accrue(3, 10);
  EXPECT_EQ(tree.NextCpu(), 0u);  // tied again at 10
  EXPECT_EQ(tree.NextCpuIn(0b1100), 2u);  // tie inside the mask: lowest set bit
}

TEST(CpuInterleaveTree, AlignAllSynchronizesToMakespan) {
  Metrics metrics;
  CpuInterleave tree(3, &metrics);
  tree.Accrue(1, 100);
  tree.Accrue(2, 40);
  EXPECT_EQ(tree.Makespan(), 100u);
  tree.AlignAll();
  for (uint16_t k = 0; k < 3; ++k) {
    EXPECT_EQ(tree.local_now(k), 100u);
  }
  EXPECT_EQ(tree.NextCpu(), 0u);
  tree.AdvanceAll(7);
  EXPECT_EQ(tree.Makespan(), 107u);
  EXPECT_EQ(tree.local_now(2), 107u);
}

TEST(CpuInterleaveTree, MaskedQuerySelectsLeastBehindWithinMask) {
  Metrics metrics;
  CpuInterleave tree(4, &metrics);
  tree.Accrue(0, 5);
  tree.Accrue(1, 50);
  tree.Accrue(2, 20);
  tree.Accrue(3, 30);
  EXPECT_EQ(tree.NextCpu(), 0u);
  EXPECT_EQ(tree.NextCpuIn(0b1110), 2u);  // 0 excluded: 2 is least behind
  EXPECT_EQ(tree.NextCpuIn(0b1010), 3u);
  // Mask bits beyond the pool are ignored as long as one real CPU is set.
  EXPECT_EQ(tree.NextCpuIn(0xFFF0u | 0b0100), 2u);
}

TEST(CpuInterleaveDeathTest, NonIntersectingMaskAborts) {
  Metrics metrics;
  CpuInterleave tree(2, &metrics);
  EXPECT_DEATH(tree.NextCpuIn(0), "selects no CPU");
  EXPECT_DEATH(tree.NextCpuIn(0b100), "selects no CPU");
}

// ---------------------------------------------------------------------------
// EventQueue: pooled closures.
// ---------------------------------------------------------------------------

TEST(EventQueuePool, LargeCapturesFallBackToHeapAndStillRun) {
  EventQueue queue;
  struct Big {
    char payload[128];
    int* sink;
  };
  int fired = 0;
  Big big{};
  big.payload[0] = 42;
  big.sink = &fired;
  static_assert(sizeof(Big) > 48, "test needs an over-inline-buffer capture");
  queue.Schedule(10, [big] { *big.sink += big.payload[0]; });
  EXPECT_EQ(queue.RunDue(10), 1u);
  EXPECT_EQ(fired, 42);
}

TEST(EventQueuePool, SlotsRecycleAcrossManyRounds) {
  EventQueue queue;
  uint64_t sum = 0;
  // Far more events than one slab (64 slots), scheduled and drained in
  // waves, so slots must be recycled for the pool not to grow unboundedly.
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 100; ++i) {
      queue.Schedule(static_cast<Cycles>(wave * 100 + i), [&sum, i] { sum += i; });
    }
    EXPECT_EQ(queue.RunDue((wave + 1) * 100), 100u);
  }
  EXPECT_EQ(sum, 50u * 4950u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueuePool, FifoOrderSurvivesInterleavedScheduleAndRun) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(10, [&] {
    order.push_back(0);
    // Scheduled mid-run at the same due time: must run after everything
    // already queued for t=10 (later sequence number).
    queue.Schedule(10, [&] { order.push_back(3); });
  });
  queue.Schedule(10, [&] { order.push_back(1); });
  queue.Schedule(10, [&] { order.push_back(2); });
  EXPECT_EQ(queue.RunDue(10), 4u);
  ASSERT_EQ(order.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: double-run byte-equality across the P11/P12/P13 shapes.
// ---------------------------------------------------------------------------

enum class Shape { kFaultStorm, kSharedStorm, kRunQueueMix };

// The kernel configuration and workload of one P11/P12/P13-shaped run.
struct ShapeRun {
  KernelConfig config;
  workload::Shape work;
};

ShapeRun SetUpShape(Shape shape, uint16_t cpus) {
  ShapeRun run;
  run.config.memory_frames = 64;
  run.config.records_per_pack = 8192;
  run.config.cpu_count = cpus;
  run.config.vp_count = 6;
  run.config.trace.enabled = true;
  run.work = workload::Shape{.processes = 6, .pages = 24, .rounds = 2, .person = "U"};
  switch (shape) {
    case Shape::kFaultStorm:  // P11: 4 x 24 pages > 64 frames, every touch faults
      run.work.processes = 4;
      break;
    case Shape::kSharedStorm:  // P12: everyone sweeps one segment, staggered
      run.config.async_paging = true;  // in-flight transfers keep PTWs locked
      run.work.kind = workload::Kind::kSharedSweep;
      run.work.path = ">work>shared";
      break;
    case Shape::kRunQueueMix:  // P13: sharded queues + stealing, charged interconnect
      run.config.sharded_runqueues = true;
      run.config.steal = true;
      run.config.connect_cost = 40;
      run.work = TestMix(60, /*quantum=*/0, /*pages=*/8);
      break;
  }
  return run;
}

class ShapeDeterminism : public ::testing::TestWithParam<std::tuple<Shape, uint16_t>> {};

TEST_P(ShapeDeterminism, DoubleRunIsByteIdentical) {
  const auto [shape, cpus] = GetParam();
  const ShapeRun run = SetUpShape(shape, cpus);
  const workload::Snapshot a = workload::Run(run.config, run.work, 8000000);
  const workload::Snapshot b = workload::Run(run.config, run.work, 8000000);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_TRUE(a.counters == b.counters);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.region.makespan, b.region.makespan);
  EXPECT_GT(a.counters.at("hw.translations"), 0u);  // the run did real work
}

std::string ShapeParamName(const ::testing::TestParamInfo<std::tuple<Shape, uint16_t>>& info) {
  const Shape shape = std::get<0>(info.param);
  const char* name = shape == Shape::kFaultStorm    ? "FaultStorm"
                     : shape == Shape::kSharedStorm ? "SharedStorm"
                                                    : "RunQueueMix";
  return std::string(name) + "_" + std::to_string(std::get<1>(info.param)) + "cpu";
}

INSTANTIATE_TEST_SUITE_P(
    P11P12P13, ShapeDeterminism,
    ::testing::Combine(::testing::Values(Shape::kFaultStorm, Shape::kSharedStorm,
                                         Shape::kRunQueueMix),
                       ::testing::Values(uint16_t{1}, uint16_t{4}, uint16_t{16})),
    ShapeParamName);

}  // namespace
}  // namespace mks
