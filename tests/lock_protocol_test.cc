// End-to-end tests of the descriptor-lock wait/notify protocol under
// contention: with asynchronous paging, the first toucher of a missing page
// posts the read and leaves the descriptor locked; every other toucher takes
// a locked-descriptor fault, arms the wakeup-waiting switch, and awaits the
// segment's page-arrival eventcount.  Completion unlocks the descriptor and
// notifies everyone.
#include <gtest/gtest.h>

#include "tests/kernel_fixture.h"

namespace mks {
namespace {

KernelConfig AsyncConfig() {
  KernelConfig config;
  config.async_paging = true;
  config.memory_frames = 64;
  return config;
}

TEST(LockProtocol, SecondToucherWaitsOnTheEventcount) {
  KernelFixture fx{AsyncConfig()};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();

  // Shared segment with one resident-then-evicted page.
  auto entry = gates.CreateSegment(*fx.ctx, gates.RootId(), "shared", WorldAcl(),
                                   Label::SystemLow());
  ASSERT_TRUE(entry.ok());
  auto segno = gates.Initiate(*fx.ctx, *entry);
  ASSERT_TRUE(gates.Write(*fx.ctx, *segno, 0, 7).ok());
  const SegmentUid uid(entry->value);
  const uint32_t ast_index = fx.kernel.segments().FindIndex(uid);
  AstEntry* ast = fx.kernel.segments().Get(ast_index);
  ASSERT_TRUE(fx.kernel.page_frames()
                  .EvictPage(&ast->page_table, 0, ast->pack, ast->vtoc, ast->quota_cell,
                             ast->page_ec)
                  .ok());

  // First toucher: posts the read, blocks.
  Status first = gates.Read(*fx.ctx, *segno, 0).status();
  EXPECT_EQ(first.code(), Code::kBlocked);
  EXPECT_TRUE(ast->page_table.ptws[0].locked);
  EXPECT_EQ(fx.kernel.page_frames().pending_io(), 1u);

  // Second toucher (another process): hits the LOCKED descriptor, not a
  // missing page, and is told to await the same eventcount.
  auto second_pid = fx.kernel.processes().CreateProcess(TestSubject("Second"));
  ProcContext* second = fx.kernel.processes().Context(*second_pid);
  auto their_segno = gates.Initiate(*second, *entry);
  ASSERT_TRUE(their_segno.ok());
  Status blocked = gates.Read(*second, *their_segno, 0).status();
  EXPECT_EQ(blocked.code(), Code::kBlocked);
  EXPECT_GT(fx.kernel.metrics().Get("gates.locked_descriptor_waits"), 0u);
  EXPECT_TRUE(second->pending_wait.valid);
  EXPECT_EQ(second->pending_wait.ec.value, ast->page_ec.value);

  // The transfer completes; the daemon unlocks and notifies.
  fx.kernel.clock().Advance(Costs::kDiskReadLatency + 1);
  fx.kernel.ctx().events.RunDue(fx.kernel.clock().now());
  EXPECT_TRUE(fx.kernel.page_frames().PageIoDaemonStep());
  EXPECT_FALSE(ast->page_table.ptws[0].locked);
  EXPECT_GE(fx.kernel.ctx().eventcounts.Read(ast->page_ec), second->pending_wait.target);

  // Both retries now succeed and see the data.
  auto mine = gates.Read(*fx.ctx, *segno, 0);
  auto theirs = gates.Read(*second, *their_segno, 0);
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(theirs.ok());
  EXPECT_EQ(*mine, 7u);
  EXPECT_EQ(*theirs, 7u);
  // Exactly one disk read serviced both touchers.
  EXPECT_EQ(fx.kernel.metrics().Get("pfm.async_reads"), 1u);
}

TEST(LockProtocol, ManyProcessesSharingOneHotSegmentAllFinish) {
  KernelConfig config = AsyncConfig();
  config.memory_frames = 56;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto entry = gates.CreateSegment(*fx.ctx, gates.RootId(), "hot", WorldAcl(),
                                   Label::SystemLow());
  ASSERT_TRUE(entry.ok());
  auto warm = gates.Initiate(*fx.ctx, *entry);
  for (uint32_t p = 0; p < 24; ++p) {
    ASSERT_TRUE(gates.Write(*fx.ctx, *warm, p * kPageWords, p + 1).ok());
  }

  std::vector<ProcessId> pids;
  for (int i = 0; i < 4; ++i) {
    auto pid = fx.kernel.processes().CreateProcess(TestSubject(Numbered("R", i)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = fx.kernel.processes().Context(*pid);
    auto segno = gates.Initiate(*ctx, *entry);
    ASSERT_TRUE(segno.ok());
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 48; ++n) {
      // Overlapping strides: several processes regularly race to the same
      // evicted page.
      program.push_back(UserOp::Read(*segno, ((n + 7u * i) % 24) * kPageWords));
    }
    ASSERT_TRUE(fx.kernel.processes().SetProgram(*pid, std::move(program)).ok());
    pids.push_back(*pid);
  }
  ASSERT_TRUE(fx.kernel.processes().RunUntilQuiescent(500000).ok());
  for (ProcessId pid : pids) {
    EXPECT_EQ(fx.kernel.processes().state(pid), ProcState::kDone)
        << fx.kernel.processes().stats(pid).last_error;
  }
  // Values intact under all that contention.
  for (uint32_t p = 0; p < 24; ++p) {
    auto value = gates.Read(*fx.ctx, *warm, p * kPageWords);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, p + 1);
  }
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

// A full-pack move must not free the old home under a read still in flight
// to it.  The read lands in a frame that last held another segment's page
// (777 at word 5); were the home freed first, the completion would find no
// record to install and the page would read back the other segment's word.
TEST(LockProtocol, RelocationWaitsForAReadInFlight) {
  KernelConfig config = AsyncConfig();
  config.pack_count = 2;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  SegmentManager& segs = fx.kernel.segments();
  PageFrameManager& pfm = fx.kernel.page_frames();

  auto moved = gates.CreateSegment(*fx.ctx, gates.RootId(), "moved", WorldAcl(),
                                   Label::SystemLow());
  auto other = gates.CreateSegment(*fx.ctx, gates.RootId(), "other", WorldAcl(),
                                   Label::SystemLow());
  ASSERT_TRUE(moved.ok());
  ASSERT_TRUE(other.ok());
  auto sm = gates.Initiate(*fx.ctx, *moved);
  auto so = gates.Initiate(*fx.ctx, *other);
  ASSERT_TRUE(sm.ok());
  ASSERT_TRUE(so.ok());
  const SegmentUid uid(moved->value);

  ASSERT_TRUE(gates.Write(*fx.ctx, *sm, 5, 4242).ok());
  const uint32_t slot = segs.FindIndex(uid);
  AstEntry* ast = segs.Get(slot);
  ASSERT_TRUE(pfm.EvictPage(&ast->page_table, 0, ast->pack, ast->vtoc, ast->quota_cell,
                            ast->page_ec)
                  .ok());
  // Dirty the freed frame with another segment's page, then free it again.
  ASSERT_TRUE(gates.Write(*fx.ctx, *so, 5, 777).ok());
  AstEntry* other_ast = segs.Find(SegmentUid(other->value));
  ASSERT_TRUE(pfm.EvictPage(&other_ast->page_table, 0, other_ast->pack, other_ast->vtoc,
                            other_ast->quota_cell, other_ast->page_ec)
                  .ok());

  ASSERT_EQ(gates.Read(*fx.ctx, *sm, 5).status().code(), Code::kBlocked);
  ASSERT_TRUE(gates.Terminate(*fx.ctx, *sm).ok());
  const PackId old_pack = ast->pack;

  auto home = segs.Relocate(slot);
  if (!home.ok()) {
    // The move waits for the transfer and then goes ahead.
    EXPECT_EQ(home.status().code(), Code::kBlocked);
    EXPECT_EQ(ast->pack.value, old_pack.value);
  }
  RunPostedIo(fx.kernel);
  EXPECT_FALSE(ast->page_table.ptws[0].locked);
  if (!home.ok()) {
    home = segs.Relocate(slot);
  }
  ASSERT_TRUE(home.ok()) << home.status();
  EXPECT_NE(home->pack.value, old_pack.value);

  // The upward move signal: every KST binding and the directory entry learn
  // the new home.
  fx.kernel.known_segments().RelocateUid(uid, home->pack, home->vtoc);
  ASSERT_TRUE(fx.kernel.directories().CompleteSegmentMove(uid, home->pack, home->vtoc).ok());

  auto again = gates.Initiate(*fx.ctx, *moved);
  ASSERT_TRUE(again.ok());
  auto value = SettledRead(fx.kernel, *fx.ctx, *again, 5);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 4242u);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

// The same collision through the gates: one process has a read in flight on
// a segment when another process's growth fills the segment's pack.  The
// grower is told to wait for the segment's next page arrival, then its retry
// moves the segment, and both processes see their data.
TEST(LockProtocol, FullPackMoveWaitsForAReadInFlight) {
  KernelConfig config = AsyncConfig();
  config.pack_count = 2;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto reader_pid = fx.kernel.processes().CreateProcess(TestSubject("Reader"));
  ASSERT_TRUE(reader_pid.ok());
  ProcContext* reader = fx.kernel.processes().Context(*reader_pid);

  auto seg = gates.CreateSegment(*fx.ctx, gates.RootId(), "grown", WorldAcl(),
                                 Label::SystemLow());
  ASSERT_TRUE(seg.ok());
  auto mine = gates.Initiate(*fx.ctx, *seg);
  auto theirs = gates.Initiate(*reader, *seg);
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(theirs.ok());
  const SegmentUid uid(seg->value);
  const uint32_t pages = 4;
  ASSERT_TRUE(gates.Write(*fx.ctx, *mine, 5, 4242).ok());
  for (uint32_t p = 1; p < pages; ++p) {
    ASSERT_TRUE(gates.Write(*fx.ctx, *mine, p * kPageWords, p + 1).ok()) << p;
  }
  AstEntry* ast = fx.kernel.segments().Find(uid);
  ASSERT_NE(ast, nullptr);

  // Other holders take the rest of the pack: the next page raises the
  // full-pack path.
  DiskPack* full = fx.kernel.ctx().volumes.pack(ast->pack);
  std::vector<RecordIndex> held;
  while (full->free_records() > 0) {
    auto record = full->AllocateRecord();
    ASSERT_TRUE(record.ok());
    held.push_back(*record);
  }

  // The reader's read of page 0 goes in flight.
  if (ast->page_table.ptws[0].in_core) {
    ASSERT_TRUE(fx.kernel.page_frames()
                    .EvictPage(&ast->page_table, 0, ast->pack, ast->vtoc, ast->quota_cell,
                               ast->page_ec)
                    .ok());
  }
  ASSERT_EQ(gates.Read(*reader, *theirs, 5).status().code(), Code::kBlocked);
  const PackId old_pack = ast->pack;

  // The growth that finds the pack full waits for the segment's page arrival.
  const Status grow = gates.Write(*fx.ctx, *mine, pages * kPageWords, pages + 1);
  ASSERT_EQ(grow.code(), Code::kBlocked) << grow;
  EXPECT_TRUE(fx.ctx->pending_wait.valid);
  EXPECT_EQ(fx.ctx->pending_wait.ec.value, ast->page_ec.value);
  EXPECT_EQ(ast->pack.value, old_pack.value);
  EXPECT_EQ(fx.kernel.metrics().Get("dir.moves_completed"), 0u);

  RunPostedIo(fx.kernel);
  EXPECT_GE(fx.kernel.ctx().eventcounts.Read(fx.ctx->pending_wait.ec),
            fx.ctx->pending_wait.target);
  const Status retried = SettledWrite(fx.kernel, *fx.ctx, *mine, pages * kPageWords, pages + 1);
  ASSERT_TRUE(retried.ok()) << retried;
  EXPECT_NE(ast->pack.value, old_pack.value);
  EXPECT_EQ(fx.kernel.metrics().Get("dir.moves_completed"), 1u);

  auto value = SettledRead(fx.kernel, *reader, *theirs, 5);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 4242u);
  for (uint32_t p = 1; p <= pages; ++p) {
    auto word = SettledRead(fx.kernel, *fx.ctx, *mine, p * kPageWords);
    ASSERT_TRUE(word.ok()) << p << ": " << word.status();
    EXPECT_EQ(*word, p + 1) << p;
  }
  for (RecordIndex record : held) {
    full->FreeRecord(record);
  }
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

}  // namespace
}  // namespace mks
