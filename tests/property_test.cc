// Property-based integration tests: randomized workloads against the whole
// kernel, checked with the integrity auditor and data checksums.
//
// Invariants checked after every run, for every seed:
//  * the integrity audit is clean (frames <-> PTWs, SDWs <-> AST,
//    quota cells == records used);
//  * every word ever written reads back (paging is transparent);
//  * the runtime call structure stayed inside the declared lattice;
//  * disk record accounting balances.
#include <gtest/gtest.h>

#include <map>

#include "src/common/rng.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

class RandomWorkloadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomWorkloadTest, AuditCleanAndDataIntact) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  KernelConfig config;
  config.memory_frames = 64 + rng.NextBelow(64);
  config.ast_slots = 10 + rng.NextBelow(10);
  config.records_per_pack = 2048;
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());

  // A couple of processes, a few segments each, random read/write traffic.
  struct Doc {
    ProcContext* ctx;
    Segno segno;
    std::map<uint32_t, Word> shadow;  // offset -> expected value
  };
  std::vector<Doc> docs;
  PathWalker walker(&kernel.gates());
  const int process_count = 2 + static_cast<int>(rng.NextBelow(3));
  for (int pi = 0; pi < process_count; ++pi) {
    auto pid = kernel.processes().CreateProcess(TestSubject(Numbered("U", pi)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = kernel.processes().Context(*pid);
    const int segments = 1 + static_cast<int>(rng.NextBelow(3));
    for (int si = 0; si < segments; ++si) {
      auto entry = walker.CreateSegment(
          *ctx, ">u" + std::to_string(pi) + ">f" + std::to_string(si), WorldAcl(),
          Label::SystemLow());
      ASSERT_TRUE(entry.ok()) << entry.status();
      auto segno = kernel.gates().Initiate(*ctx, *entry);
      ASSERT_TRUE(segno.ok());
      docs.push_back(Doc{ctx, *segno, {}});
    }
  }

  const int ops = 400;
  for (int op = 0; op < ops; ++op) {
    Doc& doc = docs[rng.NextBelow(docs.size())];
    const uint32_t page = static_cast<uint32_t>(rng.NextZipf(20, 1.1));
    const uint32_t offset = page * kPageWords + static_cast<uint32_t>(rng.NextBelow(8));
    if (rng.NextBool(0.55)) {
      const Word value = rng.Next();
      Status st = kernel.gates().Write(*doc.ctx, doc.segno, offset, value);
      ASSERT_TRUE(st.ok()) << st;
      if (value == 0) {
        doc.shadow.erase(offset);
      } else {
        doc.shadow[offset] = value;
      }
    } else if (!doc.shadow.empty()) {
      auto it = doc.shadow.begin();
      std::advance(it, rng.NextBelow(doc.shadow.size()));
      auto value = kernel.gates().Read(*doc.ctx, doc.segno, it->first);
      ASSERT_TRUE(value.ok()) << value.status();
      EXPECT_EQ(*value, it->second) << "seed " << seed << " offset " << it->first;
    }
  }

  // Full verification sweep.
  for (Doc& doc : docs) {
    for (const auto& [offset, expected] : doc.shadow) {
      auto value = kernel.gates().Read(*doc.ctx, doc.segno, offset);
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(*value, expected) << "seed " << seed << " offset " << offset;
    }
  }

  const auto findings = kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << [&] {
    std::string all = "seed " + std::to_string(seed) + ":\n";
    for (const auto& f : findings) {
      all += "  " + f + "\n";
    }
    return all;
  }();

  const auto undeclared = kernel.tracker().UndeclaredEdges(Kernel::DeclaredLattice());
  EXPECT_TRUE(undeclared.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

class RandomChurnTest : public ::testing::TestWithParam<uint64_t> {};

// Create/delete churn with quota directories: the books must balance at
// every quiescent point.
TEST_P(RandomChurnTest, QuotaBooksBalanceUnderChurn) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();

  auto qdir = gates.CreateDirectory(*fx.ctx, gates.RootId(), "q", WorldAcl(),
                                    Label::SystemLow());
  ASSERT_TRUE(qdir.ok());
  ASSERT_TRUE(gates.SetQuota(*fx.ctx, *qdir, 200).ok());

  std::vector<std::string> live;
  for (int round = 0; round < 60; ++round) {
    if (live.empty() || rng.NextBool(0.6)) {
      const std::string name = Numbered("f", round);
      auto seg = gates.CreateSegment(*fx.ctx, *qdir, name, WorldAcl(), Label::SystemLow());
      ASSERT_TRUE(seg.ok()) << seg.status();
      auto segno = gates.Initiate(*fx.ctx, *seg);
      ASSERT_TRUE(segno.ok());
      const uint32_t pages = 1 + static_cast<uint32_t>(rng.NextBelow(4));
      for (uint32_t p = 0; p < pages; ++p) {
        Status st = gates.Write(*fx.ctx, *segno, p * kPageWords, p + 1);
        if (st.code() == Code::kQuotaOverflow) {
          break;  // fine: the limit is doing its job
        }
        ASSERT_TRUE(st.ok()) << st;
      }
      ASSERT_TRUE(gates.Terminate(*fx.ctx, *segno).ok());
      live.push_back(name);
    } else {
      const size_t pick = rng.NextBelow(live.size());
      ASSERT_TRUE(gates.Delete(*fx.ctx, *qdir, live[pick]).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    }
    const auto findings = fx.kernel.AuditIntegrity();
    ASSERT_TRUE(findings.empty()) << "round " << round << ", seed " << seed << ": "
                                  << findings.front();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChurnTest, ::testing::Values(11, 22, 33, 44, 55, 66));

// Auditor sensitivity: a planted inconsistency must be reported.
TEST(Auditor, DetectsPlantedQuotaCorruption) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">d>x");
  ASSERT_TRUE(fx.kernel.gates().Write(*fx.ctx, segno, 0, 1).ok());
  ASSERT_TRUE(fx.kernel.AuditIntegrity().empty());
  // Corrupt the books: charge 3 phantom pages to the root cell.
  auto root_status = fx.kernel.gates().GetQuota(*fx.ctx, fx.kernel.gates().RootId());
  ASSERT_TRUE(root_status.ok());
  auto& dirs = fx.kernel.directories();
  (void)dirs;
  // Reach the root cell through the quota manager by home coordinates.
  auto cell = fx.kernel.quota_cells().LoadCell(PackId(0), VtocIndex(0));
  if (cell.ok()) {
    ASSERT_TRUE(fx.kernel.quota_cells().Charge(*cell, 3).ok());
    const auto findings = fx.kernel.AuditIntegrity();
    EXPECT_FALSE(findings.empty());
  }
}

}  // namespace
}  // namespace mks
