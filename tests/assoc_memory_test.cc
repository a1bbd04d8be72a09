// Tests for the descriptor associative memory: the cache is a pure
// accelerator, so no invalidation event (eviction, deactivation, bound
// shrink, access revocation, DSBR reload) may ever let it serve a stale
// translation, and switching it off must not change what the kernel does --
// only what it costs.
#include <gtest/gtest.h>

#include <map>

#include "src/common/rng.h"
#include "src/hw/machine.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// AssociativeMemory in isolation.
// ---------------------------------------------------------------------------

TEST(AssocMemory, ZeroEntriesIsDisabled) {
  AssociativeMemory assoc(0);
  EXPECT_FALSE(assoc.enabled());
  EXPECT_EQ(assoc.capacity(), 0u);
  EXPECT_EQ(assoc.Lookup(AssociativeMemory::MakeKey(1, 2)), nullptr);
}

TEST(AssocMemory, InsertThenLookup) {
  AssociativeMemory assoc(16);
  ASSERT_TRUE(assoc.enabled());
  Ptw ptw;
  const uint64_t key = AssociativeMemory::MakeKey(7, 3);
  assoc.Insert(key, &ptw, true, false, false, 4);
  AssociativeMemory::Entry* entry = assoc.Lookup(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->ptw, &ptw);
  EXPECT_TRUE(entry->read);
  EXPECT_FALSE(entry->write);
  EXPECT_EQ(entry->ring_bracket, 4);
  EXPECT_EQ(assoc.Lookup(AssociativeMemory::MakeKey(7, 4)), nullptr);
}

TEST(AssocMemory, LruEvictionWithinSet) {
  // 4 entries = a single 4-way set; five distinct keys force an eviction of
  // exactly the least recently used one.
  AssociativeMemory assoc(AssociativeMemory::kWays);
  std::vector<Ptw> ptws(5);
  std::vector<uint64_t> keys;
  for (uint32_t i = 0; i < 4; ++i) {
    keys.push_back(AssociativeMemory::MakeKey(1, i));
    assoc.Insert(keys[i], &ptws[i], true, true, true, 7);
  }
  // Touch key 0 so key 1 becomes the LRU victim.
  ASSERT_NE(assoc.Lookup(keys[0]), nullptr);
  assoc.Insert(AssociativeMemory::MakeKey(1, 99), &ptws[4], true, true, true, 7);
  EXPECT_NE(assoc.Lookup(keys[0]), nullptr);
  EXPECT_EQ(assoc.Lookup(keys[1]), nullptr);
  EXPECT_NE(assoc.Lookup(AssociativeMemory::MakeKey(1, 99)), nullptr);
}

TEST(AssocMemory, InvalidateTagDropsOnlyThatTag) {
  AssociativeMemory assoc(16);
  Ptw a, b;
  assoc.Insert(AssociativeMemory::MakeKey(5, 0), &a, true, true, true, 7);
  assoc.Insert(AssociativeMemory::MakeKey(5, 1), &a, true, true, true, 7);
  assoc.Insert(AssociativeMemory::MakeKey(6, 0), &b, true, true, true, 7);
  EXPECT_EQ(assoc.InvalidateTag(5), 2u);
  EXPECT_EQ(assoc.Lookup(AssociativeMemory::MakeKey(5, 0)), nullptr);
  EXPECT_EQ(assoc.Lookup(AssociativeMemory::MakeKey(5, 1)), nullptr);
  EXPECT_NE(assoc.Lookup(AssociativeMemory::MakeKey(6, 0)), nullptr);
}

TEST(AssocMemory, InvalidatePtwAndPageTable) {
  AssociativeMemory assoc(16);
  PageTable pt;
  pt.ptws.assign(4, Ptw{});
  Ptw outside;
  assoc.Insert(AssociativeMemory::MakeKey(1, 0), &pt.ptws[0], true, true, true, 7);
  assoc.Insert(AssociativeMemory::MakeKey(1, 2), &pt.ptws[2], true, true, true, 7);
  assoc.Insert(AssociativeMemory::MakeKey(2, 0), &outside, true, true, true, 7);
  EXPECT_EQ(assoc.InvalidatePtw(&pt.ptws[2]), 1u);
  EXPECT_EQ(assoc.Lookup(AssociativeMemory::MakeKey(1, 2)), nullptr);
  // Deactivation: everything resolved through the table's PTW storage dies.
  EXPECT_EQ(assoc.InvalidatePageTable(&pt), 1u);
  EXPECT_EQ(assoc.Lookup(AssociativeMemory::MakeKey(1, 0)), nullptr);
  EXPECT_NE(assoc.Lookup(AssociativeMemory::MakeKey(2, 0)), nullptr);
  assoc.Flush();
  EXPECT_EQ(assoc.Lookup(AssociativeMemory::MakeKey(2, 0)), nullptr);
}

// A brute-force reference for the cache: the same geometry (sets of kWays,
// the same set hash), each set a plain array scanned in full on every
// operation.  Insert fills the first invalid way, else the least recently
// used one.  It keeps its own per-PTW presence counts.
class ReferenceAssoc {
 public:
  struct Way {
    bool valid = false;
    uint64_t key = 0;
    Ptw* ptw = nullptr;
    bool read = false;
    uint8_t ring_bracket = 0;
    uint64_t stamp = 0;
  };

  explicit ReferenceAssoc(uint16_t entries) {
    if (entries == 0) {
      return;
    }
    size_t sets = 1;
    size_t ways = entries;
    if (entries >= AssociativeMemory::kWays) {
      while (sets * 2 * AssociativeMemory::kWays <= entries) {
        sets *= 2;
      }
      ways = AssociativeMemory::kWays;
    }
    sets_.assign(sets, std::vector<Way>(ways));
  }

  Way* Lookup(uint64_t key) {
    for (Way& w : Set(key)) {
      if (w.valid && w.key == key) {
        w.stamp = ++stamp_;
        return &w;
      }
    }
    return nullptr;
  }
  // Called only after a Lookup miss, as Processor::Access does.
  void Insert(uint64_t key, Ptw* ptw, bool read, uint8_t ring_bracket) {
    if (sets_.empty()) {
      return;
    }
    std::vector<Way>& set = Set(key);
    Way* victim = nullptr;
    for (Way& w : set) {
      if (!w.valid) {
        victim = &w;
        break;
      }
      if (victim == nullptr || w.stamp < victim->stamp) {
        victim = &w;
      }
    }
    if (victim->valid) {
      --refs_[victim->ptw];
    }
    ++refs_[ptw];
    *victim = Way{true, key, ptw, read, ring_bracket, ++stamp_};
  }
  template <typename Pred>
  uint32_t DropIf(Pred pred) {
    uint32_t dropped = 0;
    for (std::vector<Way>& set : sets_) {
      for (Way& w : set) {
        if (w.valid && pred(w)) {
          w.valid = false;
          --refs_[w.ptw];
          ++dropped;
        }
      }
    }
    return dropped;
  }
  void Drop(Way* w) {
    w->valid = false;
    --refs_[w->ptw];
  }
  bool Holds(uint32_t tag) const {
    for (const std::vector<Way>& set : sets_) {
      for (const Way& w : set) {
        if (w.valid && (w.key >> 32) == tag) {
          return true;
        }
      }
    }
    return false;
  }
  uint16_t Refs(const Ptw* ptw) const {
    auto it = refs_.find(ptw);
    return it == refs_.end() ? 0 : it->second;
  }

 private:
  std::vector<Way>& Set(uint64_t key) {
    static std::vector<Way> none;
    if (sets_.empty()) {
      return none;
    }
    const uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    return sets_[(h >> 32) & (sets_.size() - 1)];
  }

  std::vector<std::vector<Way>> sets_;
  std::map<const Ptw*, uint16_t> refs_;
  uint64_t stamp_ = 0;
};

// Seeded random operation sequences against the reference: every return
// value, every lookup result and every PTW presence count must agree, and
// the tag summary must never deny a tag the cache holds.  The tags collide
// mod 64, so the summary's bits are shared and an InvalidateTag for an
// absent tag still has to scan and find nothing.
TEST(AssocMemoryProperty, MatchesTheReferenceScanUnderRandomOperations) {
  const std::vector<uint32_t> tags{1, 65, 129, 2, 66, 7, 71, 200};
  for (uint16_t capacity : {0, 3, 16, 64}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " + std::to_string(seed));
      AssociativeMemory assoc(capacity);
      ReferenceAssoc ref(capacity);
      std::vector<PageTable> tables(3);
      for (PageTable& pt : tables) {
        pt.ptws.assign(6, Ptw{});
      }
      Rng rng(seed);
      auto random_ptw = [&]() -> Ptw* {
        return &tables[rng.NextBelow(tables.size())].ptws[rng.NextBelow(6)];
      };
      auto random_key = [&]() {
        return AssociativeMemory::MakeKey(tags[rng.NextBelow(tags.size())],
                                          static_cast<uint32_t>(rng.NextBelow(6)));
      };
      for (int step = 0; step < 3000; ++step) {
        const uint64_t op = rng.NextBelow(100);
        if (op < 45) {
          // A translation: look up, insert on a miss.
          const uint64_t key = random_key();
          AssociativeMemory::Entry* got = assoc.Lookup(key);
          ReferenceAssoc::Way* want = ref.Lookup(key);
          ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
          if (got != nullptr) {
            EXPECT_EQ(got->ptw, want->ptw) << "step " << step;
            EXPECT_EQ(got->read, want->read) << "step " << step;
            EXPECT_EQ(got->ring_bracket, want->ring_bracket) << "step " << step;
          } else {
            Ptw* ptw = random_ptw();
            const bool read = rng.NextBelow(2) == 0;
            const uint8_t ring = static_cast<uint8_t>(rng.NextBelow(8));
            assoc.Insert(key, ptw, read, true, false, ring);
            ref.Insert(key, ptw, read, ring);
          }
        } else if (op < 55) {
          const uint64_t key = random_key();
          AssociativeMemory::Entry* got = assoc.Lookup(key);
          ReferenceAssoc::Way* want = ref.Lookup(key);
          ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
          if (got != nullptr) {
            assoc.InvalidateEntry(got);
            ref.Drop(want);
          }
        } else if (op < 75) {
          const uint32_t tag = tags[rng.NextBelow(tags.size())];
          const uint32_t want = ref.DropIf(
              [tag](const ReferenceAssoc::Way& w) { return (w.key >> 32) == tag; });
          EXPECT_EQ(assoc.InvalidateTag(tag), want) << "step " << step;
        } else if (op < 88) {
          const Ptw* ptw = random_ptw();
          const uint32_t want =
              ref.DropIf([ptw](const ReferenceAssoc::Way& w) { return w.ptw == ptw; });
          EXPECT_EQ(assoc.InvalidatePtw(ptw), want) << "step " << step;
        } else if (op < 97) {
          const PageTable* pt = &tables[rng.NextBelow(tables.size())];
          const Ptw* first = pt->ptws.data();
          const Ptw* last = first + pt->ptws.size();
          const uint32_t want = ref.DropIf([first, last](const ReferenceAssoc::Way& w) {
            return w.ptw >= first && w.ptw < last;
          });
          EXPECT_EQ(assoc.InvalidatePageTable(pt), want) << "step " << step;
        } else {
          ref.DropIf([](const ReferenceAssoc::Way&) { return true; });
          assoc.Flush();
        }
        for (const PageTable& pt : tables) {
          for (const Ptw& ptw : pt.ptws) {
            ASSERT_EQ(ptw.assoc_refs, ref.Refs(&ptw)) << "step " << step;
          }
        }
        for (uint32_t tag : tags) {
          if (ref.Holds(tag)) {
            ASSERT_TRUE(assoc.MayHoldTag(tag)) << "tag " << tag << " step " << step;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The Processor's use of the cache: invalidation correctness.
// ---------------------------------------------------------------------------

struct AssocRig {
  Clock clock;
  CostModel cost{&clock};
  Metrics metrics;
  PageTable pt;
  DescriptorSegment ds;
  Processor processor;

  AssocRig()
      : processor(HwFeatures{.second_dsbr = true, .associative_entries = 16},
                  &cost, &metrics) {
    pt.ptws.assign(8, Ptw{});
    ds.sdws.assign(4, Sdw{});
    Sdw& sdw = ds.sdws[0];
    sdw.present = true;
    sdw.page_table = &pt;
    sdw.bound_pages = 8;
    sdw.read = true;
    sdw.write = true;
    sdw.ring_bracket = 4;
    processor.set_user_ds(&ds);
  }

  void MapPage(uint32_t page, uint32_t frame) {
    pt.ptws[page].in_core = true;
    pt.ptws[page].unallocated = false;
    pt.ptws[page].frame = frame;
  }

  uint64_t Hits() const { return metrics.Get("hw.assoc_hits"); }
};

constexpr Segno kSeg{kSystemSegnoLimit};

TEST(AssocProcessor, SecondAccessIsAHit) {
  AssocRig rig;
  rig.MapPage(1, 7);
  auto first = rig.processor.Access(kSeg, kPageWords + 5, AccessMode::kRead, 4);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(rig.Hits(), 0u);
  auto second = rig.processor.Access(kSeg, kPageWords + 6, AccessMode::kRead, 4);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(rig.Hits(), 1u);
  EXPECT_EQ(second.abs_addr, 7u * kPageWords + 6);
}

TEST(AssocProcessor, EvictedPageFaultsInsteadOfServingStaleFrame) {
  AssocRig rig;
  rig.MapPage(2, 9);
  ASSERT_TRUE(rig.processor.Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4).ok);
  // Page control evicts the page: frame is reassigned, PTW goes out-of-core,
  // and the eviction site invalidates the cached pairing.
  rig.pt.ptws[2].in_core = false;
  rig.pt.ptws[2].frame = 0;
  rig.processor.InvalidateAssociative(&rig.pt.ptws[2]);
  auto r = rig.processor.Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.fault.kind, FaultKind::kMissingPage);
}

TEST(AssocProcessor, EvictedPageFaultsEvenWithoutExplicitInvalidation) {
  // Belt and braces: the hit path validates the live PTW, so even a missed
  // invalidation cannot produce a wrong absolute address for an out-of-core
  // page -- the reference falls through to the full walk and faults.
  AssocRig rig;
  rig.MapPage(2, 9);
  ASSERT_TRUE(rig.processor.Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4).ok);
  rig.pt.ptws[2].in_core = false;
  auto r = rig.processor.Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.fault.kind, FaultKind::kMissingPage);
  EXPECT_EQ(rig.Hits(), 0u);
}

TEST(AssocProcessor, DeactivatedPageTableStorageIsNeverConsulted) {
  AssocRig rig;
  rig.MapPage(3, 11);
  ASSERT_TRUE(rig.processor.Access(kSeg, 3 * kPageWords, AccessMode::kRead, 4).ok);
  // Segment control deactivates: the PTW storage is invalidated, then the
  // AST slot (and its page table) is handed to a different segment whose
  // page 3 lives in another frame.
  rig.processor.InvalidateAssociative(&rig.pt);
  rig.pt.ptws.assign(8, Ptw{});
  rig.MapPage(3, 5);
  auto r = rig.processor.Access(kSeg, 3 * kPageWords, AccessMode::kRead, 4);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.abs_addr, 5u * kPageWords);
}

TEST(AssocProcessor, BoundShrinkNeverServesStale) {
  AssocRig rig;
  rig.MapPage(5, 13);
  ASSERT_TRUE(rig.processor.Access(kSeg, 5 * kPageWords, AccessMode::kRead, 4).ok);
  // The hit path does not re-check the bound (the cached pairing stands in
  // for the whole walk), so the descriptor-mutation site must invalidate.
  rig.ds.sdws[0].bound_pages = 4;
  rig.processor.ClearAssociative(kSeg);
  auto r = rig.processor.Access(kSeg, 5 * kPageWords, AccessMode::kRead, 4);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.fault.kind, FaultKind::kOutOfBounds);
}

TEST(AssocProcessor, AccessRevocationNeverServesStale) {
  AssocRig rig;
  rig.MapPage(0, 3);
  ASSERT_TRUE(rig.processor.Access(kSeg, 1, AccessMode::kWrite, 4).ok);
  rig.ds.sdws[0].write = false;
  rig.processor.ClearAssociative(kSeg);
  auto r = rig.processor.Access(kSeg, 1, AccessMode::kWrite, 4);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.fault.kind, FaultKind::kAccessViolation);
  // Reads were not revoked and still resolve (and re-fill the cache).
  EXPECT_TRUE(rig.processor.Access(kSeg, 1, AccessMode::kRead, 4).ok);
}

TEST(AssocProcessor, DsbrReloadFlushes) {
  AssocRig rig;
  rig.MapPage(1, 7);
  ASSERT_TRUE(rig.processor.Access(kSeg, kPageWords, AccessMode::kRead, 4).ok);
  ASSERT_TRUE(rig.processor.Access(kSeg, kPageWords, AccessMode::kRead, 4).ok);
  EXPECT_EQ(rig.Hits(), 1u);
  const uint64_t flushes_before = rig.metrics.Get("hw.assoc_flushes");
  // Loading a different descriptor base clears the associative memory, as on
  // the 6180: entries from the old address space must not survive.  The new
  // space maps the same segno to a different frame; serving the cached
  // pairing would hand back the old one.
  DescriptorSegment other = rig.ds;
  PageTable other_pt;
  other_pt.ptws.assign(8, Ptw{});
  other_pt.ptws[1] = Ptw{.frame = 12, .in_core = true, .unallocated = false};
  other.sdws[0].page_table = &other_pt;
  rig.processor.set_user_ds(&other);
  EXPECT_GT(rig.metrics.Get("hw.assoc_flushes"), flushes_before);
  auto r = rig.processor.Access(kSeg, kPageWords, AccessMode::kRead, 4);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.abs_addr, 12u * kPageWords);
  EXPECT_EQ(rig.Hits(), 1u);  // first post-reload reference misses
}

// ---------------------------------------------------------------------------
// Property: cache on vs cache off is cost-only.  Same reference string, a
// memory small enough to force eviction and reactivation traffic, and the
// two kernels must agree on every per-reference outcome, every value read
// back, and the total fault count.
// ---------------------------------------------------------------------------

TEST(AssocProperty, CacheOnAndOffAgreeOnEverythingButCost) {
  constexpr uint32_t kSegments = 5;
  constexpr uint32_t kPagesPerSeg = 12;
  constexpr size_t kReferences = 4000;

  KernelConfig on_config;
  on_config.memory_frames = 72;  // < data pages + resident core segments
  KernelConfig off_config = on_config;
  off_config.features.associative_entries = 0;

  KernelFixture on(on_config);
  KernelFixture off(off_config);
  ASSERT_TRUE(on.boot_status.ok());
  ASSERT_TRUE(off.boot_status.ok());

  std::vector<Segno> on_segs, off_segs;
  for (uint32_t s = 0; s < kSegments; ++s) {
    const std::string path = ">prop>seg" + std::to_string(s);
    on_segs.push_back(on.MustCreate(path));
    off_segs.push_back(off.MustCreate(path));
  }

  Rng rng(42);
  uint64_t mismatches = 0;
  for (size_t i = 0; i < kReferences; ++i) {
    const uint32_t s = static_cast<uint32_t>(rng.NextBelow(kSegments));
    const uint32_t page = static_cast<uint32_t>(rng.NextZipf(kPagesPerSeg, 1.1));
    const uint32_t offset = page * kPageWords + static_cast<uint32_t>(rng.NextBelow(kPageWords));
    if (rng.NextBool(0.4)) {
      const Word value = static_cast<Word>(i + 1);
      Status a = on.kernel.gates().Write(*on.ctx, on_segs[s], offset, value);
      Status b = off.kernel.gates().Write(*off.ctx, off_segs[s], offset, value);
      mismatches += a.code() != b.code();
    } else {
      auto a = on.kernel.gates().Read(*on.ctx, on_segs[s], offset);
      auto b = off.kernel.gates().Read(*off.ctx, off_segs[s], offset);
      mismatches += a.status().code() != b.status().code();
      if (a.ok() && b.ok()) {
        mismatches += *a != *b;
      } else {
        mismatches += a.ok() != b.ok();
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // The cache did something (otherwise this property is vacuous) ...
  EXPECT_GT(on.kernel.metrics().Get("hw.assoc_hits"), 0u);
  EXPECT_EQ(off.kernel.metrics().Get("hw.assoc_hits"), 0u);
  // ... and changed nothing the program can observe: same fault history,
  // same final memory contents.
  EXPECT_EQ(on.kernel.metrics().Get("pfm.faults_serviced"),
            off.kernel.metrics().Get("pfm.faults_serviced"));
  EXPECT_EQ(on.kernel.metrics().Get("ksm.segment_faults"),
            off.kernel.metrics().Get("ksm.segment_faults"));
  for (uint32_t s = 0; s < kSegments; ++s) {
    for (uint32_t w = 0; w < kPagesPerSeg * kPageWords; w += 257) {
      auto a = on.kernel.gates().Read(*on.ctx, on_segs[s], w);
      auto b = off.kernel.gates().Read(*off.ctx, off_segs[s], w);
      ASSERT_EQ(a.ok(), b.ok()) << "seg " << s << " word " << w;
      if (a.ok()) {
        ASSERT_EQ(*a, *b) << "seg " << s << " word " << w;
      }
    }
  }
}

}  // namespace
}  // namespace mks
