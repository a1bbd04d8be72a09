// The multi-CPU invariant sweep: every workload shape of bench/workload.h at
// 1, 4 and 16 CPUs, with the profiler on, on the default (modelled) kernel,
// whose sharded run queues steal, both as KernelConfig{} and as the
// comparator table's modelled row, and on the table's 1977 machine, which
// dispatches from the global ready list over a free interconnect with
// test-and-set and no slab.
// After each run the integrity audit is clean, every process's last-written
// word reads back, every observed call lies inside the declared lattice, the
// profiler's ledger balances on every CPU, and Shutdown succeeds.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "tests/kernel_fixture.h"

namespace mks {
namespace {

struct NamedShape {
  const char* name;
  workload::Shape shape;
  bool async_paging;  // the shared sweep collides on in-flight transfers
};

const NamedShape kShapes[] = {
    {"PrivateSweep", workload::FaultStorm(/*rounds=*/2), false},
    {"SharedSweep",
     workload::Shape{.kind = workload::Kind::kSharedSweep,
                     .processes = 6,
                     .pages = 24,
                     .rounds = 2,
                     .path = ">work>shared"},
     true},
    {"ComputeWrite", TestMix(48, /*quantum=*/3), false},
    {"PinnedMix", workload::PinnedMix(24), false},
};

using SweepParam = std::tuple<size_t, uint16_t, bool>;  // shape, cpus, modelled row

KernelConfig SweepConfig(const NamedShape& shape, uint16_t cpus) {
  KernelConfig config;
  config.cpu_count = cpus;
  config.memory_frames = 64;
  config.records_per_pack = 8192;
  config.vp_count = 6;
  config.async_paging = shape.async_paging;
  config.profile.enabled = true;
  return config;
}

void ExpectInvariantsAfterRun(const NamedShape& named, const KernelConfig& config) {
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  const workload::Snapshot snap = workload::Run(kernel, named.shape, 4000000);
  ASSERT_TRUE(snap.ok);
  EXPECT_TRUE(snap.all_done);
  EXPECT_TRUE(snap.audit.empty()) << snap.audit.front();
  ASSERT_FALSE(snap.expected.empty());
  EXPECT_EQ(snap.values, snap.expected);
  EXPECT_TRUE(kernel.tracker().UndeclaredEdges(Kernel::DeclaredLattice()).empty());
  const Prof& prof = kernel.ctx().prof;
  for (uint16_t cpu = 0; cpu < prof.cpu_count(); ++cpu) {
    EXPECT_EQ(prof.attributed(cpu), prof.accrued(cpu)) << "cpu " << cpu;
  }
  EXPECT_TRUE(kernel.Shutdown().ok());
}

// The default arm runs KernelConfig{}; the modelled arm applies the table's
// modelled row over the 1977 row, so the row alone has to restore the
// machine the default arm runs.
class InvariantSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(InvariantSweep, InvariantsHoldAfterTheRun) {
  const auto [index, cpus, modelled] = GetParam();
  const NamedShape& named = kShapes[index];
  SCOPED_TRACE(std::string(named.name) + " @ " + std::to_string(cpus) + " cpus, " +
               (modelled ? "modelled" : "default") + " config");
  const KernelConfig config = SweepConfig(named, cpus);
  ExpectInvariantsAfterRun(
      named, modelled ? comparator::kModelled.Apply(comparator::k1977.Apply(config)) : config);
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [index, cpus, modelled] = info.param;
  return std::string(kShapes[index].name) + "_" + std::to_string(cpus) + "cpu_" +
         (modelled ? "modelled" : "default");
}

INSTANTIATE_TEST_SUITE_P(Shapes, InvariantSweep,
                         ::testing::Combine(::testing::Range(size_t{0}, std::size(kShapes)),
                                            ::testing::Values(uint16_t{1}, uint16_t{4},
                                                              uint16_t{16}),
                                            ::testing::Bool()),
                         SweepName);

// The same sweep on the 1977 machine.
using Sweep1977Param = std::tuple<size_t, uint16_t>;  // shape, cpus

class InvariantSweep1977 : public ::testing::TestWithParam<Sweep1977Param> {};

TEST_P(InvariantSweep1977, InvariantsHoldAfterTheRun) {
  const auto [index, cpus] = GetParam();
  const NamedShape& named = kShapes[index];
  SCOPED_TRACE(std::string(named.name) + " @ " + std::to_string(cpus) + " cpus, 1977 config");
  ExpectInvariantsAfterRun(named, comparator::k1977.Apply(SweepConfig(named, cpus)));
}

std::string Sweep1977Name(const ::testing::TestParamInfo<Sweep1977Param>& info) {
  const auto [index, cpus] = info.param;
  return std::string(kShapes[index].name) + "_" + std::to_string(cpus) + "cpu_1977";
}

INSTANTIATE_TEST_SUITE_P(Shapes, InvariantSweep1977,
                         ::testing::Combine(::testing::Range(size_t{0}, std::size(kShapes)),
                                            ::testing::Values(uint16_t{1}, uint16_t{4},
                                                              uint16_t{16})),
                         Sweep1977Name);

}  // namespace
}  // namespace mks
