// Ablation (C1) — the zero-page accounting tradeoff.  Default semantics:
// zero pages cost nothing to store, but a mere read can allocate storage and
// move the quota count (the confinement violation).  Channel-closed
// semantics: zero pages retain their records and charges — reads move no
// accounting state, storage is over-charged, and re-touches get faster
// (no reallocation).
#include <cstdio>

#include "bench/bench_util.h"

namespace mks {
namespace {

struct Outcome {
  uint64_t accounting_moves = 0;  // quota count changes caused by reads
  uint64_t records_held = 0;      // records consumed at rest
  Cycles retouch_cycles = 0;      // cost of re-reading the zeroed pages
};

Outcome RunScenario(bool close_channel) {
  KernelConfig config;
  config.close_zero_page_channel = close_channel;
  BenchKernel fx{config};
  KernelGates& gates = fx.kernel.gates();
  PathWalker walker(&gates);

  auto dir = gates.CreateDirectory(*fx.ctx, gates.RootId(), "q", WorldAcl(),
                                   Label::SystemLow());
  (void)gates.SetQuota(*fx.ctx, *dir, 200);
  auto seg = gates.CreateSegment(*fx.ctx, *dir, "sparse", WorldAcl(),
                                 Label::SystemLow());
  auto segno = gates.Initiate(*fx.ctx, *seg);

  // A 32-page file, data only in the first and last page — the paper's
  // 100,000-word example in miniature.
  constexpr uint32_t kFilePages = 32;
  for (uint32_t p = 0; p < kFilePages; ++p) {
    (void)gates.Write(*fx.ctx, *segno, p * kPageWords, p == 0 || p == kFilePages - 1 ? 7 : 1);
  }
  // Zero the interior and push everything out so the zero-page logic runs.
  for (uint32_t p = 1; p + 1 < kFilePages; ++p) {
    (void)gates.Write(*fx.ctx, *segno, p * kPageWords, 0);
  }
  const SegmentUid uid(seg->value);
  fx.kernel.address_spaces().DisconnectEverywhere(uid);
  (void)fx.kernel.segments().Deactivate(fx.kernel.segments().FindIndex(uid));

  Outcome outcome;
  const VtocEntry* at_rest = nullptr;
  // Count records at rest.
  for (uint16_t pk = 0; pk < fx.kernel.ctx().volumes.pack_count(); ++pk) {
    DiskPack* pack = fx.kernel.ctx().volumes.pack(PackId(pk));
    for (uint32_t v = 0; v < pack->vtoc_slots(); ++v) {
      const VtocEntry* entry = pack->GetVtoc(VtocIndex(v));
      if (entry != nullptr && entry->uid == uid) {
        at_rest = entry;
      }
    }
  }
  if (at_rest != nullptr) {
    outcome.records_held = at_rest->RecordsUsed();
  }

  // Re-read every interior (zero) page and watch the books.
  auto before = gates.GetQuota(*fx.ctx, *dir);
  auto fresh = gates.Initiate(*fx.ctx, *seg);
  const Cycles start = fx.kernel.clock().now();
  for (uint32_t p = 1; p + 1 < kFilePages; ++p) {
    (void)gates.Read(*fx.ctx, *fresh, p * kPageWords);
  }
  outcome.retouch_cycles = fx.kernel.clock().now() - start;
  auto after = gates.GetQuota(*fx.ctx, *dir);
  if (before.ok() && after.ok()) {
    outcome.accounting_moves =
        after->count > before->count ? after->count - before->count : 0;
  }
  return outcome;
}

}  // namespace
}  // namespace mks

int main() {
  using namespace mks;
  std::printf("=== Ablation: zero-page accounting vs confinement ===\n\n");
  const Outcome open = RunScenario(false);
  const Outcome closed = RunScenario(true);
  std::printf("%-34s %14s %14s\n", "", "default (open)", "channel closed");
  std::printf("%-34s %14llu %14llu\n", "records held by sparse file at rest",
              (unsigned long long)open.records_held, (unsigned long long)closed.records_held);
  std::printf("%-34s %14llu %14llu\n", "quota moves caused by 30 reads",
              (unsigned long long)open.accounting_moves,
              (unsigned long long)closed.accounting_moves);
  std::printf("%-34s %14llu %14llu\n", "cycles to re-read the zero pages",
              (unsigned long long)open.retouch_cycles,
              (unsigned long long)closed.retouch_cycles);
  std::printf(
      "\npaper: \"a file of size of say, 100,000 words ... non-zero in only the\n"
      "first and last words will accumulate a charge for only two storage\n"
      "pages\" — and \"a read implicitly causes information to be written ...\n"
      "in violation of the confinement goal\".  The ablation shows the trade:\n"
      "cheap sparse storage + a covert channel, or full charging + confinement.\n");
  const bool shape = open.records_held < closed.records_held &&
                     open.accounting_moves > 0 && closed.accounting_moves == 0;
  std::printf("%s\n", shape ? "REPRODUCED" : "MISMATCH");
  return shape ? 0 : 1;
}
