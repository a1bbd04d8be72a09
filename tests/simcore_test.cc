// Tests for the flattened simulator core (the host-throughput refactor).
//
// The core's contract is byte-identical virtual-time output: CPU selection
// and the lazy page fill are host-side choices only.  Two layers of
// evidence (the posted-read FIFO's contract is tested in sim_test.cc):
//  * unit — the pool's mask scan, with its shared base offset and cached
//    makespan, agrees with a reference model that keeps absolute per-CPU
//    clocks, under arbitrary Accrue/AdvanceAll/AlignAll/masked-query
//    sequences;
//  * end-to-end — double runs of the P11/P12/P13 workload shapes at 1, 4,
//    and 16 CPUs produce byte-identical counter snapshots and trace exports.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/sim/cpu_sched.h"
#include "src/sim/metrics.h"
#include "src/sim/trace.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// CpuInterleave vs a reference with absolute clocks.
// ---------------------------------------------------------------------------

// Per-CPU absolute clocks, linear scans, makespan recomputed on demand.
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

void ExpectAgreement(const CpuInterleave& pool, const ReferenceInterleave& ref,
                     uint32_t some_mask) {
  ASSERT_EQ(pool.count(), ref.locals.size());
  EXPECT_EQ(pool.NextCpu(), ref.NextCpu());
  EXPECT_EQ(pool.Makespan(), ref.Makespan());
  for (uint16_t k = 0; k < pool.count(); ++k) {
    EXPECT_EQ(pool.local_now(k), ref.locals[k]) << "cpu " << k;
  }
  if ((some_mask & pool.PoolMask()) != 0) {
    EXPECT_EQ(pool.NextCpuIn(some_mask), ref.NextCpuIn(some_mask & pool.PoolMask()));
  }
}

TEST(CpuInterleave, MatchesReferenceScanUnderMixedOps) {
  for (uint16_t cpus : {1, 2, 3, 4, 7, 8, 16, 32}) {
    Metrics metrics;
    CpuInterleave pool(cpus, &metrics);
    ReferenceInterleave ref(cpus);
    std::mt19937 rng(12345u + cpus);
    for (int step = 0; step < 500; ++step) {
      const uint32_t pick = rng() % 100;
      if (pick < 70) {
        const uint16_t cpu = static_cast<uint16_t>(rng() % cpus);
        const Cycles delta = rng() % 1000;
        pool.Accrue(cpu, delta);
        ref.Accrue(cpu, delta);
      } else if (pick < 85) {
        const Cycles delta = rng() % 500;
        pool.AdvanceAll(delta);
        ref.AdvanceAll(delta);
      } else {
        pool.AlignAll();
        ref.AlignAll();
      }
      ExpectAgreement(pool, ref, rng());
    }
  }
}

TEST(CpuInterleaveTree, TiesResolveToLowestIndex) {
  Metrics metrics;
  CpuInterleave pool(4, &metrics);
  EXPECT_EQ(pool.NextCpu(), 0u);  // all zero: lowest index wins
  pool.Accrue(0, 10);
  EXPECT_EQ(pool.NextCpu(), 1u);
  pool.Accrue(1, 10);
  pool.Accrue(2, 10);
  pool.Accrue(3, 10);
  EXPECT_EQ(pool.NextCpu(), 0u);  // tied again at 10
  EXPECT_EQ(pool.NextCpuIn(0b1100), 2u);  // tie inside the mask: lowest set bit
}

TEST(CpuInterleaveTree, AlignAllSynchronizesToMakespan) {
  Metrics metrics;
  CpuInterleave pool(3, &metrics);
  pool.Accrue(1, 100);
  pool.Accrue(2, 40);
  EXPECT_EQ(pool.Makespan(), 100u);
  pool.AlignAll();
  for (uint16_t k = 0; k < 3; ++k) {
    EXPECT_EQ(pool.local_now(k), 100u);
  }
  EXPECT_EQ(pool.NextCpu(), 0u);
  pool.AdvanceAll(7);
  EXPECT_EQ(pool.Makespan(), 107u);
  EXPECT_EQ(pool.local_now(2), 107u);
}

TEST(CpuInterleaveTree, MaskedQuerySelectsLeastBehindWithinMask) {
  Metrics metrics;
  CpuInterleave pool(4, &metrics);
  pool.Accrue(0, 5);
  pool.Accrue(1, 50);
  pool.Accrue(2, 20);
  pool.Accrue(3, 30);
  EXPECT_EQ(pool.NextCpu(), 0u);
  EXPECT_EQ(pool.NextCpuIn(0b1110), 2u);  // 0 excluded: 2 is least behind
  EXPECT_EQ(pool.NextCpuIn(0b1010), 3u);
  // Mask bits beyond the pool are ignored as long as one real CPU is set.
  EXPECT_EQ(pool.NextCpuIn(0xFFF0u | 0b0100), 2u);
}

TEST(CpuInterleaveDeathTest, NonIntersectingMaskAborts) {
  Metrics metrics;
  CpuInterleave pool(2, &metrics);
  EXPECT_DEATH(pool.NextCpuIn(0), "selects no CPU");
  EXPECT_DEATH(pool.NextCpuIn(0b100), "selects no CPU");
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
