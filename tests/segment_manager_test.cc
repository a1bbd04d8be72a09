// Direct tests of the segment manager: activation, the UNCONSTRAINED
// deactivation rule (the contrast with the baseline's hierarchy-shape
// constraint), LRU replacement, and relocation plumbing; and of the known
// segment table's uid index against a brute-force model.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

TEST(SegmentManager, ActivateIsIdempotentViaEnsureActive) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">a>x");
  ASSERT_TRUE(fx.kernel.gates().Write(*fx.ctx, segno, 0, 1).ok());
  const KstEntry* entry = fx.kernel.known_segments().Lookup(fx.pid, segno);
  ASSERT_NE(entry, nullptr);
  const uint32_t first = fx.kernel.segments().FindIndex(entry->home.uid);
  ASSERT_NE(first, kNoAst);
  auto again = fx.kernel.segments().EnsureActive(entry->home.uid, entry->home.pack,
                                                 entry->home.vtoc, entry->home.quota_cell);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, first);
  EXPECT_EQ(fx.kernel.metrics().Get("seg.activations"),
            fx.kernel.metrics().Get("seg.activations"));
}

TEST(SegmentManager, DeactivationIsNotConstrainedByHierarchyShape) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  // Build >top>mid>leaf and touch the leaf so everything activates.
  const Segno leaf = fx.MustCreate(">top>mid>leaf");
  ASSERT_TRUE(gates.Write(*fx.ctx, leaf, 0, 1).ok());

  // The *directory* >top's backing segment is active (its pages were grown).
  auto top = gates.Search(*fx.ctx, gates.RootId(), "top");
  ASSERT_TRUE(top.ok());
  const SegmentUid top_uid(top->value);
  const uint32_t top_ast = fx.kernel.segments().FindIndex(top_uid);
  if (top_ast != kNoAst && fx.kernel.segments().Get(top_ast)->connections == 0) {
    // In the old supervisor this deactivation would be FORBIDDEN while the
    // leaf (an inferior) is active.  The new design permits it outright.
    EXPECT_TRUE(fx.kernel.segments().Deactivate(top_ast).ok());
    // And the leaf keeps working afterwards.
    auto value = gates.Read(*fx.ctx, leaf, 0);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, 1u);
  }
}

TEST(SegmentManager, AstReplacementEvictsLruUnconnected) {
  KernelConfig config;
  config.ast_slots = 6;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  // Many segments touched once, then terminated, so their AST entries are
  // unconnected and eligible for replacement.
  for (int i = 0; i < 12; ++i) {
    const Segno segno = fx.MustCreate(">pool>s" + std::to_string(i));
    ASSERT_TRUE(gates.Write(*fx.ctx, segno, 0, 100 + i).ok());
    ASSERT_TRUE(gates.Terminate(*fx.ctx, segno).ok());
  }
  EXPECT_GT(fx.kernel.metrics().Get("seg.ast_replacements"), 0u);
  EXPECT_LE(fx.kernel.segments().active_count(), 6u);
  // Data written through the replaced activations survives.
  PathWalker walker(&gates);
  for (int i = 0; i < 12; ++i) {
    auto segno = walker.Initiate(*fx.ctx, ">pool>s" + std::to_string(i));
    ASSERT_TRUE(segno.ok());
    auto value = gates.Read(*fx.ctx, *segno, 0);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, 100u + i);
    ASSERT_TRUE(gates.Terminate(*fx.ctx, *segno).ok());
  }
}

TEST(SegmentManager, ConnectedSegmentsCannotBeDeactivated) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">a>locked");
  ASSERT_TRUE(fx.kernel.gates().Write(*fx.ctx, segno, 0, 1).ok());
  const KstEntry* entry = fx.kernel.known_segments().Lookup(fx.pid, segno);
  const uint32_t ast = fx.kernel.segments().FindIndex(entry->home.uid);
  ASSERT_NE(ast, kNoAst);
  EXPECT_GT(fx.kernel.segments().Get(ast)->connections, 0u);
  EXPECT_EQ(fx.kernel.segments().Deactivate(ast).code(), Code::kFailedPrecondition);
}

TEST(SegmentManager, RelocationRequiresDisconnection) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">a>movable");
  ASSERT_TRUE(fx.kernel.gates().Write(*fx.ctx, segno, 0, 7).ok());
  const KstEntry* entry = fx.kernel.known_segments().Lookup(fx.pid, segno);
  const uint32_t ast = fx.kernel.segments().FindIndex(entry->home.uid);
  // Still connected: the segment manager refuses.
  EXPECT_EQ(fx.kernel.segments().Relocate(ast).code(), Code::kFailedPrecondition);
  // After severing, relocation succeeds and the data moves.
  fx.kernel.address_spaces().DisconnectEverywhere(entry->home.uid);
  auto home = fx.kernel.segments().Relocate(ast);
  ASSERT_TRUE(home.ok()) << home.status();
  EXPECT_NE(home->pack.value, entry->home.pack.value);
  const VtocEntry* moved = fx.kernel.ctx().volumes.pack(home->pack)->GetVtoc(home->vtoc);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->RecordsUsed(), 1u);
}

TEST(Gates, AccessModeMasksAreEnforcedByHardware) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  // Read-only ACL for Smith.
  Acl acl;
  acl.Add(AclEntry{"Jones", "Projx", AccessModes::RWE()});
  acl.Add(AclEntry{"Smith", "Projx", AccessModes::R()});
  auto entry = gates.CreateSegment(*fx.ctx, gates.RootId(), "ro", acl, Label::SystemLow());
  ASSERT_TRUE(entry.ok());
  auto mine = gates.Initiate(*fx.ctx, *entry);
  ASSERT_TRUE(gates.Write(*fx.ctx, *mine, 0, 5).ok());

  auto smith_pid = fx.kernel.processes().CreateProcess(TestSubject("Smith"));
  ProcContext* smith = fx.kernel.processes().Context(*smith_pid);
  auto ro = gates.Initiate(*smith, *entry);
  ASSERT_TRUE(ro.ok());
  auto value = gates.Read(*smith, *ro, 0);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 5u);
  EXPECT_EQ(gates.Write(*smith, *ro, 0, 9).code(), Code::kNoAccess);
}

TEST(Gates, TerminateInvalidatesTheSegno) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">a>gone");
  ASSERT_TRUE(fx.kernel.gates().Write(*fx.ctx, segno, 0, 1).ok());
  ASSERT_TRUE(fx.kernel.gates().Terminate(*fx.ctx, segno).ok());
  EXPECT_EQ(fx.kernel.gates().Read(*fx.ctx, segno, 0).code(), Code::kInvalidSegno);
  EXPECT_EQ(fx.kernel.gates().Terminate(*fx.ctx, segno).code(), Code::kInvalidSegno);
}

TEST(Gates, ReinitiationReturnsTheSameSegno) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto entry = gates.CreateSegment(*fx.ctx, gates.RootId(), "same", WorldAcl(),
                                   Label::SystemLow());
  ASSERT_TRUE(entry.ok());
  auto first = gates.Initiate(*fx.ctx, *entry);
  auto second = gates.Initiate(*fx.ctx, *entry);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->value, second->value);
}

TEST(Gates, OutOfBoundsBeyondMaxLength) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">a>bounded");
  EXPECT_EQ(fx.kernel.gates().Write(*fx.ctx, segno, kMaxSegmentPages * kPageWords, 1).code(),
            Code::kOutOfBounds);
  // The last addressable word is fine (and grows the final page).
  EXPECT_TRUE(
      fx.kernel.gates().Write(*fx.ctx, segno, kMaxSegmentPages * kPageWords - 1, 1).ok());
}

// The KST's uid index, live count and free hint against a brute-force model
// of two tables: Initiate must hand out exactly the lowest free slot (segnos
// feed SDW indices and associative-memory hashing), re-initiation must find
// the existing binding, and after every step the integrity audit, which
// cross-checks the index against the entries, must stay clean.  The uid pool
// is twice the table size and occasional bursts fill a table, so Initiate
// also reports exhaustion.
TEST(KstIndex, SegnosFollowTheLowestFreeModelAndTheAuditStaysClean) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KnownSegmentManager& ksm = fx.kernel.known_segments();
  const std::vector<ProcessId> pids{ProcessId(900), ProcessId(901)};
  for (ProcessId pid : pids) {
    ASSERT_TRUE(ksm.CreateKst(pid).ok());
  }
  const size_t slots = fx.kernel.address_spaces().Space(pids[0])->sdws.size();
  ASSERT_GT(slots, 8u);
  // model[p][i]: the uid bound at slot i of process p's table, 0 when free.
  std::vector<std::vector<uint64_t>> model(pids.size(), std::vector<uint64_t>(slots, 0));
  auto segno_at = [](size_t i) { return Segno(static_cast<uint16_t>(kSystemSegnoLimit + i)); };
  Rng rng(17);
  int exhausted = 0;
  for (int step = 0; step < 6000; ++step) {
    const size_t p = rng.NextBelow(pids.size());
    std::vector<uint64_t>& m = model[p];
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 60) {
      // Mostly one initiation; now and then a burst long enough to fill the
      // table.
      const size_t burst = rng.NextBelow(40) == 0 ? 3 * slots : 1;
      for (size_t b = 0; b < burst; ++b) {
        const SegmentUid uid(1 + rng.NextBelow(2 * slots));
        const SegmentHome home{uid, PackId(0), VtocIndex(static_cast<uint32_t>(uid.value)),
                               kNoQuotaCell, false};
        auto got = ksm.Initiate(pids[p], home, AccessModes::RW(), 4);
        const auto bound = std::find(m.begin(), m.end(), uid.value);
        const auto free = std::find(m.begin(), m.end(), uint64_t{0});
        if (bound != m.end()) {
          ASSERT_TRUE(got.ok()) << "step " << step;
          EXPECT_EQ(*got, segno_at(static_cast<size_t>(bound - m.begin()))) << "step " << step;
        } else if (free == m.end()) {
          EXPECT_EQ(got.status().code(), Code::kResourceExhausted) << "step " << step;
          ++exhausted;
        } else {
          ASSERT_TRUE(got.ok()) << "step " << step;
          EXPECT_EQ(*got, segno_at(static_cast<size_t>(free - m.begin()))) << "step " << step;
          *free = uid.value;
        }
      }
    } else if (roll < 90) {
      const size_t i = rng.NextBelow(slots);
      EXPECT_EQ(ksm.Terminate(pids[p], segno_at(i)).ok(), m[i] != 0) << "step " << step;
      m[i] = 0;
    } else if (roll < 93) {
      // The slab reset keeps the state segment's binding; a plain reset
      // passes a segno no user binding can have.
      const bool keep = rng.NextBelow(2) == 0;
      const size_t keep_slot = rng.NextBelow(slots);
      ASSERT_TRUE(ksm.ResetKst(pids[p], keep ? segno_at(keep_slot) : Segno(0)).ok());
      for (size_t i = 0; i < slots; ++i) {
        if (!keep || i != keep_slot) {
          m[i] = 0;
        }
      }
    } else {
      // The full-pack path's rewrite of every binding of one uid.
      const SegmentUid uid(1 + rng.NextBelow(2 * slots));
      const PackId pack(static_cast<uint16_t>(1 + rng.NextBelow(3)));
      const VtocIndex vtoc(static_cast<uint32_t>(rng.NextBelow(1000)));
      ksm.RelocateUid(uid, pack, vtoc);
      for (size_t q = 0; q < pids.size(); ++q) {
        const auto at = std::find(model[q].begin(), model[q].end(), uid.value);
        if (at == model[q].end()) {
          EXPECT_FALSE(ksm.SegnoOf(pids[q], uid).ok());
          continue;
        }
        const KstEntry* entry =
            ksm.Lookup(pids[q], segno_at(static_cast<size_t>(at - model[q].begin())));
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->home.pack, pack);
        EXPECT_EQ(entry->home.vtoc, vtoc);
      }
    }
    const std::vector<std::string> findings = fx.kernel.AuditIntegrity();
    ASSERT_TRUE(findings.empty()) << "step " << step << ": " << findings.front();
  }
  EXPECT_GT(exhausted, 0);  // the sequence really fills the tables
  for (size_t p = 0; p < pids.size(); ++p) {
    for (size_t i = 0; i < slots; ++i) {
      const KstEntry* entry = ksm.Lookup(pids[p], segno_at(i));
      ASSERT_EQ(entry != nullptr, model[p][i] != 0) << "process " << p << " slot " << i;
      if (entry != nullptr) {
        EXPECT_EQ(entry->home.uid.value, model[p][i]);
        auto segno = ksm.SegnoOf(pids[p], entry->home.uid);
        ASSERT_TRUE(segno.ok());
        EXPECT_EQ(*segno, segno_at(i));
      }
    }
  }
}

}  // namespace
}  // namespace mks
