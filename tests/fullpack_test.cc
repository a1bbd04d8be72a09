// End-to-end tests of the full-pack exception path in the new kernel: the
// downward grow chain, relocation, and the non-returning upward signal that
// rewrites the directory entry.
#include <gtest/gtest.h>

#include "tests/kernel_fixture.h"

namespace mks {
namespace {

KernelConfig TinyPacks() {
  KernelConfig config;
  config.pack_count = 2;
  config.records_per_pack = 28;
  config.vtoc_slots_per_pack = 32;
  return config;
}

TEST(FullPack, SegmentMovesAndDirectoryEntryIsRewritten) {
  KernelFixture fx{TinyPacks()};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();

  auto a = gates.CreateSegment(*fx.ctx, gates.RootId(), "a", WorldAcl(), Label::SystemLow());
  auto b = gates.CreateSegment(*fx.ctx, gates.RootId(), "b", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto sa = gates.Initiate(*fx.ctx, *a);
  auto sb = gates.Initiate(*fx.ctx, *b);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());

  // Interleave growth on both segments until one pack fills and the upward
  // signal fires.
  Status st = Status::Ok();
  uint32_t grown = 0;
  for (uint32_t p = 0; p < 24 && st.ok(); ++p) {
    st = gates.Write(*fx.ctx, *sa, p * kPageWords, p + 1);
    if (st.ok()) {
      st = gates.Write(*fx.ctx, *sb, p * kPageWords, p + 101);
      ++grown;
    }
  }
  ASSERT_GT(fx.kernel.metrics().Get("ksm.full_pack_moves"), 0u);
  ASSERT_GT(fx.kernel.metrics().Get("gates.upward_signals"), 0u);
  ASSERT_GT(fx.kernel.metrics().Get("dir.moves_completed"), 0u);

  // Every page written before and after the move is intact.
  for (uint32_t p = 0; p < grown; ++p) {
    auto va = gates.Read(*fx.ctx, *sa, p * kPageWords);
    ASSERT_TRUE(va.ok()) << p << ": " << va.status();
    EXPECT_EQ(*va, p + 1);
    auto vb = gates.Read(*fx.ctx, *sb, p * kPageWords);
    ASSERT_TRUE(vb.ok()) << p << ": " << vb.status();
    EXPECT_EQ(*vb, p + 101);
  }
}

TEST(FullPack, OtherProcessReconnectsThroughSegmentFault) {
  KernelFixture fx{TinyPacks()};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();

  auto other_proc = fx.kernel.processes().CreateProcess(TestSubject("Smith"));
  ASSERT_TRUE(other_proc.ok());
  ProcContext* other = fx.kernel.processes().Context(*other_proc);

  auto a = gates.CreateSegment(*fx.ctx, gates.RootId(), "a", WorldAcl(), Label::SystemLow());
  auto filler =
      gates.CreateSegment(*fx.ctx, gates.RootId(), "fill", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(filler.ok());
  auto sa_mine = gates.Initiate(*fx.ctx, *a);
  auto sa_other = gates.Initiate(*other, *a);
  auto sf = gates.Initiate(*fx.ctx, *filler);
  ASSERT_TRUE(sa_mine.ok());
  ASSERT_TRUE(sa_other.ok());
  ASSERT_TRUE(sf.ok());

  // Both processes touch `a`, then growth forces it off its pack.
  ASSERT_TRUE(gates.Write(*fx.ctx, *sa_mine, 0, 42).ok());
  auto seen = gates.Read(*other, *sa_other, 0);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(*seen, 42u);

  Status st = Status::Ok();
  for (uint32_t p = 0; p < 24 && st.ok(); ++p) {
    st = gates.Write(*fx.ctx, *sf, p * kPageWords, 1);
    if (st.ok()) {
      st = gates.Write(*fx.ctx, *sa_mine, p * kPageWords, p);
    }
  }
  ASSERT_GT(fx.kernel.metrics().Get("ksm.full_pack_moves"), 0u);

  // The other process's SDW was severed by the move; its next reference
  // takes a missing-segment fault and reconnects via the standard machinery.
  auto after = gates.Read(*other, *sa_other, 0);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, 0u);  // page 0 was rewritten with p=0 during the fill
  EXPECT_GT(fx.kernel.metrics().Get("ksm.segment_faults"), 0u);
}

// Initiation and the move's directory rewrite find an entry through the
// uid index, not by scanning the directory; renames must keep it in step.
TEST(FullPack, EntryIndexFollowsRenamesInALargeDirectory) {
  KernelConfig config = TinyPacks();
  config.records_per_pack = 40;
  config.vtoc_slots_per_pack = 64;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto dir = gates.CreateDirectory(*fx.ctx, gates.RootId(), "many", WorldAcl(),
                                   Label::SystemLow());
  ASSERT_TRUE(dir.ok());
  for (uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(gates.CreateSegment(*fx.ctx, *dir, "f" + std::to_string(i), WorldAcl(),
                                    Label::SystemLow())
                    .ok());
  }
  auto a = gates.CreateSegment(*fx.ctx, *dir, "a", WorldAcl(), Label::SystemLow());
  auto b = gates.CreateSegment(*fx.ctx, *dir, "b", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(gates.Rename(*fx.ctx, *dir, "a", "zz-a").ok());
  ASSERT_TRUE(gates.Rename(*fx.ctx, *dir, "f7", "a").ok());  // the old name, reused
  auto sa = gates.Initiate(*fx.ctx, *a);
  auto sb = gates.Initiate(*fx.ctx, *b);
  ASSERT_TRUE(sa.ok()) << sa.status();
  ASSERT_TRUE(sb.ok()) << sb.status();

  Status st = Status::Ok();
  uint32_t grown = 0;
  for (uint32_t p = 0; p < 32 && st.ok() &&
                       fx.kernel.metrics().Get("dir.moves_completed") == 0;
       ++p) {
    st = gates.Write(*fx.ctx, *sa, p * kPageWords, p + 1);
    if (st.ok()) {
      st = gates.Write(*fx.ctx, *sb, p * kPageWords, p + 101);
      ++grown;
    }
  }
  ASSERT_TRUE(st.ok()) << st;
  ASSERT_GT(fx.kernel.metrics().Get("dir.moves_completed"), 0u);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());

  // The renamed entry still names the moved object; a fresh initiation of
  // it reads what was written before and after the move.
  auto found = gates.Search(*fx.ctx, *dir, "zz-a");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *a);
  ASSERT_TRUE(gates.Terminate(*fx.ctx, *sa).ok());
  auto again = gates.Initiate(*fx.ctx, *a);
  ASSERT_TRUE(again.ok()) << again.status();
  for (uint32_t p = 0; p < grown; ++p) {
    auto va = gates.Read(*fx.ctx, *again, p * kPageWords);
    ASSERT_TRUE(va.ok()) << p << ": " << va.status();
    EXPECT_EQ(*va, p + 1);
  }
}

TEST(FullPack, WhenNoTargetPackExistsGrowthFails) {
  KernelConfig config = TinyPacks();
  config.pack_count = 1;  // nowhere to move to
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto a = gates.CreateSegment(*fx.ctx, gates.RootId(), "a", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(a.ok());
  auto sa = gates.Initiate(*fx.ctx, *a);
  ASSERT_TRUE(sa.ok());
  Status st = Status::Ok();
  uint32_t p = 0;
  for (; p < 40 && st.ok(); ++p) {
    st = gates.Write(*fx.ctx, *sa, p * kPageWords, 1);
  }
  EXPECT_EQ(st.code(), Code::kPackFull);
}

}  // namespace
}  // namespace mks
