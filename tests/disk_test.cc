// Tests for disk volume control: packs, records, VTOCs, placement.
#include <gtest/gtest.h>

#include "src/disk/pack.h"

namespace mks {
namespace {

struct DiskFixture {
  Clock clock;
  CostModel cost{&clock};
  Metrics metrics;
  VolumeControl volumes{&cost, &metrics};
};

TEST(Disk, AllocateAndFreeRecords) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(8, 4);
  DiskPack* pack = fx.volumes.pack(id);
  EXPECT_EQ(pack->free_records(), 8u);
  auto r1 = pack->AllocateRecord();
  auto r2 = pack->AllocateRecord();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r1->value, r2->value);
  EXPECT_EQ(pack->free_records(), 6u);
  pack->FreeRecord(*r1);
  EXPECT_EQ(pack->free_records(), 7u);
}

TEST(Disk, PackFullWhenExhausted) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(3, 4);
  DiskPack* pack = fx.volumes.pack(id);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pack->AllocateRecord().ok());
  }
  EXPECT_EQ(pack->AllocateRecord().code(), Code::kPackFull);
  EXPECT_GT(fx.metrics.Get("disk.pack_full"), 0u);
}

TEST(Disk, RecordIoRoundTripAndLatency) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(4, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto rec = pack->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  std::vector<Word> out(kPageWords, 0);
  std::vector<Word> in(kPageWords, 0);
  in[0] = 11;
  in[kPageWords - 1] = 99;
  const Cycles before = fx.clock.now();
  pack->WriteRecord(*rec, in);
  pack->ReadRecord(*rec, out);
  EXPECT_GE(fx.clock.now() - before, Costs::kDiskReadLatency + Costs::kDiskWriteLatency);
  EXPECT_EQ(out[0], 11u);
  EXPECT_EQ(out[kPageWords - 1], 99u);
}

TEST(Disk, UnwrittenRecordReadsZero) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(4, 4);
  auto rec = fx.volumes.pack(id)->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  std::vector<Word> out(kPageWords, 1);
  fx.volumes.pack(id)->ReadRecord(*rec, out);
  for (Word w : out) {
    ASSERT_EQ(w, 0u);
  }
}

TEST(Disk, VtocLifecycleFreesRecords) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(8, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto vtoc = pack->AllocateVtoc(SegmentUid(77), false);
  ASSERT_TRUE(vtoc.ok());
  VtocEntry* entry = pack->GetVtoc(*vtoc);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->uid.value, 77u);
  auto rec = pack->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  entry->file_map[0].allocated = true;
  entry->file_map[0].record = *rec;
  EXPECT_EQ(entry->RecordsUsed(), 1u);
  EXPECT_EQ(pack->free_records(), 7u);
  pack->FreeVtoc(*vtoc);
  EXPECT_EQ(pack->free_records(), 8u);
  EXPECT_EQ(pack->GetVtoc(*vtoc), nullptr);
}

TEST(Disk, VtocSlotsExhaust) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(8, 2);
  DiskPack* pack = fx.volumes.pack(id);
  ASSERT_TRUE(pack->AllocateVtoc(SegmentUid(1), false).ok());
  ASSERT_TRUE(pack->AllocateVtoc(SegmentUid(2), false).ok());
  EXPECT_EQ(pack->AllocateVtoc(SegmentUid(3), false).code(), Code::kNoVtocSlot);
}

TEST(Disk, ChoosePackPrefersEmptiest) {
  DiskFixture fx;
  const PackId a = fx.volumes.AddPack(8, 4);
  const PackId b = fx.volumes.AddPack(8, 4);
  // Drain pack a.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fx.volumes.pack(a)->AllocateRecord().ok());
  }
  auto chosen = fx.volumes.ChoosePack();
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(chosen->value, b.value);
}

TEST(Disk, ChoosePackExcludingNeedsHeadroom) {
  DiskFixture fx;
  const PackId a = fx.volumes.AddPack(8, 4);
  const PackId b = fx.volumes.AddPack(4, 4);
  auto ok = fx.volumes.ChoosePackExcluding(a, 4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->value, b.value);
  EXPECT_EQ(fx.volumes.ChoosePackExcluding(a, 5).code(), Code::kPackFull);
  EXPECT_EQ(fx.volumes.ChoosePackExcluding(b, 9).code(), Code::kPackFull);
}

TEST(Disk, CopyAndStoreSkipLatency) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(4, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto rec = pack->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  std::vector<Word> in(kPageWords, 5);
  const Cycles before = fx.clock.now();
  pack->StoreRecord(*rec, in);
  std::vector<Word> out(kPageWords, 0);
  pack->CopyRecord(*rec, out);
  EXPECT_EQ(fx.clock.now(), before);  // no latency charged
  EXPECT_EQ(out[100], 5u);
}

TEST(Disk, RecordGenerationAdvancesOnEveryRewriteAndFree) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(4, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto rec = pack->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  const std::vector<Word> page(kPageWords, 3);
  uint16_t gen = pack->generation(*rec);
  pack->WriteRecord(*rec, page);
  EXPECT_EQ(pack->generation(*rec), ++gen);
  pack->StoreRecord(*rec, page);
  EXPECT_EQ(pack->generation(*rec), ++gen);
  pack->QueueWrite(*rec, page, 0);
  EXPECT_EQ(pack->generation(*rec), gen);  // staged, not yet written
  ASSERT_EQ(pack->DispatchBatch(1, nullptr), 1u);
  EXPECT_EQ(pack->generation(*rec), ++gen);
  std::vector<Word> out(kPageWords);
  pack->ReadRecord(*rec, out);
  pack->ChargeRead(*rec);
  EXPECT_EQ(pack->generation(*rec), gen);  // reads leave it alone
  pack->FreeRecord(*rec);
  EXPECT_EQ(pack->generation(*rec), ++gen);
}

// A frame bound to fill from a record reads the record as it was at bind
// time; a rewrite before the fill is the bug the generation check catches.
TEST(Disk, PendingFrameFillsFromItsRecordAndTripsOnARewrite) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(4, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto rec = pack->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  pack->StoreRecord(*rec, std::vector<Word>(kPageWords, 9));
  PrimaryMemory memory(2, &fx.cost, &fx.metrics);
  const FrameIndex frame(1);
  fx.volumes.BindRecord(id, *rec, &memory, frame);
  EXPECT_TRUE(memory.IsPending(frame));
  EXPECT_EQ(memory.ReadWord(kPageWords + 7), 9u);
  EXPECT_EQ(fx.clock.now(), Costs::kMemoryReference);  // the bind itself is free
  EXPECT_EQ(memory.FrameSpan(frame)[100], 9u);
  EXPECT_FALSE(memory.IsPending(frame));

  fx.volumes.BindRecord(id, *rec, &memory, frame);
  pack->StoreRecord(*rec, std::vector<Word>(kPageWords, 4));
  EXPECT_DEBUG_DEATH((void)memory.ReadWord(kPageWords + 7), "rewritten under a pending frame");
  EXPECT_DEBUG_DEATH((void)memory.FrameSpan(frame), "rewritten under a pending frame");
}

}  // namespace
}  // namespace mks
