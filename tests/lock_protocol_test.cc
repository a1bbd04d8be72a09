// End-to-end tests of the descriptor-lock wait/notify protocol under
// contention: with asynchronous paging, the first toucher of a missing page
// posts the read and leaves the descriptor locked; every other toucher takes
// a locked-descriptor fault, arms the wakeup-waiting switch, and awaits the
// segment's page-arrival eventcount.  Completion unlocks the descriptor and
// notifies everyone.
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

// The segment of a read in flight, with its reader destroyed mid-read: one
// word written at offset 5, page 0 evicted, then re-read by a process that
// is destroyed while the read is posted.  Nothing connects the segment
// afterwards, so it is the first victim AST replacement or deletion would
// take.
struct OrphanedRead {
  explicit OrphanedRead(KernelFixture& fx) {
    KernelGates& gates = fx.kernel.gates();
    auto entry = gates.CreateSegment(*fx.ctx, gates.RootId(), "busy", WorldAcl(),
                                     Label::SystemLow());
    EXPECT_TRUE(entry.ok());
    uid = SegmentUid(entry->value);
    auto mine = gates.Initiate(*fx.ctx, *entry);
    EXPECT_TRUE(gates.Write(*fx.ctx, *mine, 5, 4242).ok());
    EXPECT_TRUE(gates.Terminate(*fx.ctx, *mine).ok());
    AstEntry* ast = fx.kernel.segments().Find(uid);
    EXPECT_TRUE(fx.kernel.page_frames()
                    .EvictPage(&ast->page_table, 0, ast->pack, ast->vtoc, ast->quota_cell,
                               ast->page_ec)
                    .ok());
    auto reader = fx.kernel.processes().CreateProcess(TestSubject("Reader"));
    EXPECT_TRUE(reader.ok());
    ProcContext* ctx = fx.kernel.processes().Context(*reader);
    auto theirs = gates.Initiate(*ctx, *entry);
    EXPECT_EQ(gates.Read(*ctx, *theirs, 5).status().code(), Code::kBlocked);
    EXPECT_TRUE(fx.kernel.processes().DestroyProcess(*reader).ok());
    slot = fx.kernel.segments().FindIndex(uid);
    EXPECT_EQ(ast->connections, 0u);
    EXPECT_TRUE(ast->page_table.ptws[0].locked);
  }

  SegmentUid uid{};
  uint32_t slot = kNoAst;
};

// AST replacement must not hand out the slot of a segment with a read in
// flight: the completion targets the slot's page table.  Were the slot
// reused, the landing read would unlock and clear page 0 of the new
// occupant, whose frame the audit would then find detached, and the new
// occupant's write would be lost.
TEST(LockProtocol, AstReplacementSkipsASegmentWithAReadInFlight) {
  KernelConfig config = AsyncConfig();
  config.ast_slots = 12;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  const OrphanedRead busy(fx);
  ASSERT_NE(busy.slot, kNoAst);

  // Unconnected segments, each with page 0 resident and modified, until
  // their activations have replaced more AST entries than there are slots.
  std::vector<Segno> fills;
  for (uint32_t i = 0; fx.kernel.metrics().Get("seg.ast_replacements") <= config.ast_slots;
       ++i) {
    ASSERT_LT(i, 4 * config.ast_slots);
    auto entry = gates.CreateSegment(*fx.ctx, gates.RootId(), Numbered("fill", i), WorldAcl(),
                                     Label::SystemLow());
    ASSERT_TRUE(entry.ok()) << entry.status();
    auto segno = gates.Initiate(*fx.ctx, *entry);
    ASSERT_TRUE(segno.ok()) << segno.status();
    ASSERT_TRUE(gates.Write(*fx.ctx, *segno, 0, 100 + i).ok());
    ASSERT_TRUE(gates.Terminate(*fx.ctx, *segno).ok());
    fills.push_back(*segno);
  }
  EXPECT_EQ(fx.kernel.segments().FindIndex(busy.uid), busy.slot);

  RunPostedIo(fx.kernel);
  EXPECT_EQ(fx.kernel.page_frames().pending_io(), 0u);
  const std::vector<std::string> findings = fx.kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();

  PathWalker walker(&gates);
  for (uint32_t i = 0; i < fills.size(); ++i) {
    auto segno = walker.Initiate(*fx.ctx, ">" + Numbered("fill", i));
    ASSERT_TRUE(segno.ok()) << segno.status();
    auto value = SettledRead(fx.kernel, *fx.ctx, *segno, 0);
    ASSERT_TRUE(value.ok()) << value.status();
    EXPECT_EQ(*value, 100 + i) << "fill " << i;
    ASSERT_TRUE(gates.Terminate(*fx.ctx, *segno).ok());
  }
  auto segno = walker.Initiate(*fx.ctx, ">busy");
  ASSERT_TRUE(segno.ok()) << segno.status();
  auto value = SettledRead(fx.kernel, *fx.ctx, *segno, 5);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 4242u);
}

// Deleting the segment of a read in flight waits for the read, changing
// nothing meanwhile; the retry after the page arrival deletes it cleanly.
TEST(LockProtocol, DeleteWaitsForAReadInFlight) {
  KernelFixture fx{AsyncConfig()};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  const OrphanedRead busy(fx);
  const AstEntry* ast = fx.kernel.segments().Get(busy.slot);
  ASSERT_NE(ast, nullptr);

  const Status deleted = gates.Delete(*fx.ctx, gates.RootId(), "busy");
  ASSERT_EQ(deleted.code(), Code::kBlocked) << deleted;
  EXPECT_TRUE(fx.ctx->pending_wait.valid);
  EXPECT_EQ(fx.ctx->pending_wait.ec.value, ast->page_ec.value);
  EXPECT_EQ(fx.kernel.segments().FindIndex(busy.uid), busy.slot);
  EXPECT_TRUE(gates.Search(*fx.ctx, gates.RootId(), "busy").ok());

  RunPostedIo(fx.kernel);
  EXPECT_GE(fx.kernel.ctx().eventcounts.Read(fx.ctx->pending_wait.ec),
            fx.ctx->pending_wait.target);
  ASSERT_TRUE(gates.Delete(*fx.ctx, gates.RootId(), "busy").ok());
  EXPECT_EQ(fx.kernel.segments().FindIndex(busy.uid), kNoAst);
  EXPECT_EQ(gates.Search(*fx.ctx, gates.RootId(), "busy").status().code(), Code::kNoEntry);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

// Without slab parking, destroying a process tears down its state segment,
// which must wait for a read in flight on it; the process is kept until the
// retry.
TEST(LockProtocol, ProcessTeardownWaitsForAStateSegmentRead) {
  KernelConfig config = AsyncConfig();
  config.slab_processes = false;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  auto pid = fx.kernel.processes().CreateProcess(TestSubject("Doomed"));
  ASSERT_TRUE(pid.ok());
  // The state segment is the new process's only binding: the first segno
  // above the system range.  Ring 0 reaches it, as the dispatcher does.
  const Segno state(kSystemSegnoLimit);
  const KstEntry* binding = fx.kernel.known_segments().Lookup(*pid, state);
  ASSERT_NE(binding, nullptr);
  const SegmentUid uid = binding->home.uid;
  ProcContext ring0 = *fx.kernel.processes().Context(*pid);
  ring0.subject.ring = 0;
  ASSERT_TRUE(SettledWrite(fx.kernel, ring0, state, 0, 9).ok());
  AstEntry* ast = fx.kernel.segments().Find(uid);
  ASSERT_NE(ast, nullptr);
  ASSERT_TRUE(fx.kernel.page_frames()
                  .EvictPage(&ast->page_table, 0, ast->pack, ast->vtoc, ast->quota_cell,
                             ast->page_ec)
                  .ok());
  ASSERT_EQ(fx.kernel.gates().Read(ring0, state, 0).status().code(), Code::kBlocked);

  WaitSpec wait;
  ASSERT_EQ(fx.kernel.processes().DestroyProcess(*pid, &wait).code(), Code::kBlocked);
  EXPECT_TRUE(wait.valid);
  EXPECT_EQ(wait.ec.value, ast->page_ec.value);
  EXPECT_NE(fx.kernel.processes().Context(*pid), nullptr);

  RunPostedIo(fx.kernel);
  ASSERT_TRUE(fx.kernel.processes().DestroyProcess(*pid).ok());
  EXPECT_EQ(fx.kernel.processes().Context(*pid), nullptr);
  EXPECT_EQ(fx.kernel.segments().FindIndex(uid), kNoAst);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

// Shutdown lands posted reads before it deactivates anything.
TEST(LockProtocol, ShutdownLandsReadsInFlight) {
  KernelFixture fx{AsyncConfig()};
  ASSERT_TRUE(fx.boot_status.ok());
  const OrphanedRead busy(fx);
  ASSERT_EQ(fx.kernel.page_frames().pending_io(), 1u);
  ASSERT_TRUE(fx.kernel.Shutdown().ok());
  EXPECT_EQ(fx.kernel.page_frames().pending_io(), 0u);
  EXPECT_EQ(fx.kernel.segments().active_count(), 0u);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

}  // namespace
}  // namespace mks
