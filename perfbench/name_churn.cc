// name_churn: the naming surface under a read-mostly mix.
//
// Sixteen CPUs; clients walk a two-level directory tree and, with names
// drawn from a Zipf distribution, search for segments, initiate and
// terminate them, and list directories.  About 5% of operations write the
// namespace: CreateSegment, Rename, Delete and SetAcl in rotation.  The
// benchmark keeps its own model of the namespace, and every final directory
// listing must match it.
//
// Closed loop: each client's next operation is due a think time after its
// previous one completed, and runs in one anchored window on the
// furthest-behind CPU.  One op is one naming call (walk plus gate calls).
#include <algorithm>
#include <deque>

#include "workloads.h"

namespace perfbench {
namespace {

using mks::Cycles;

constexpr uint16_t kCpus = 16;
constexpr uint32_t kClients = 48;
constexpr uint32_t kTopDirs = 4;
constexpr uint32_t kSubDirs = 8;
constexpr uint32_t kLeafDirs = kTopDirs * kSubDirs;
constexpr uint32_t kSlots = 32;  // names per leaf directory
// The write share is the workload's definition.  The Zipf exponent, the
// client count and the 40/40/15 split of searches, initiates and listings
// (Operate) are assumed, not taken from a measured Multics trace.
constexpr double kZipfExponent = 0.9;
constexpr double kWriteShare = 0.05;
constexpr uint64_t kOps = 200000;  // measured ops per repetition
// Mean think time, set by the measurement used for rush_hour's: throughput
// at 85-86% of its peak.  Throughput peaks with no think time (4456 ops per
// Mcyc on seed 1, 4416 on seeds 2 and 3); at 8 kcyc it is 86% of that on
// all three seeds, at 10 kcyc 79%, at 20 kcyc 49%.  The directory's read
// spin share stays between 0.66 and 0.85 over that whole range (readers
// wait out writers' sections at any load), so it does not mark saturation.
constexpr double kThinkMean = 8000;

mks::KernelConfig NameChurnConfig() {
  mks::KernelConfig config = ModelledKernelConfig(kCpus);
  config.memory_frames = 512;
  config.records_per_pack = 8192;
  config.ast_slots = 256;
  config.vtoc_slots_per_pack = 2048;
  return config;
}

// ">nc<top>>d<sub>", built by appending (GCC 12 warns falsely on
// literal + std::string chains).
std::string LeafPath(uint32_t leaf) {
  std::string path = ">nc";
  path += std::to_string(leaf / kSubDirs);
  path += ">d";
  path += std::to_string(leaf % kSubDirs);
  return path;
}

mks::Acl SegmentAcl(bool execute) {
  mks::Acl acl;
  acl.Add(mks::AclEntry{"*", "Churn", execute ? mks::AccessModes::RWE() : mks::AccessModes::RW()});
  return acl;
}

struct Slot {
  uint32_t gen = 0;
  bool live = true;
  std::string Name(uint32_t slot) const {
    std::string name = "n";
    name += std::to_string(slot);
    name += '_';
    name += std::to_string(gen);
    return name;
  }
};

struct Client {
  explicit Client(uint64_t seed) : rng(seed) {}
  mks::Rng rng;
  mks::ProcessId pid{};
};

class NameChurn {
 public:
  NameChurn(uint64_t seed, bool trace)
      : seed_(seed),
        rng_(seed * 0xd1342543de82ef95ULL + 3),
        kernel_(NameChurnConfig()),
        spans_(trace, &kernel_.clock()),
        walker_(&kernel_.gates()),
        slots_(kLeafDirs, std::vector<Slot>(kSlots)),
        live_(kLeafDirs, kSlots) {}

  RunResult Run(const Stopwatch& setup);

 private:
  std::string SetUp();
  std::string Verify();
  bool Operate(uint32_t c);
  bool Write(mks::ProcContext& ctx, uint64_t req, mks::EntryId dir, uint32_t leaf,
             uint32_t slot);
  // The leaf and slot of a Zipf-popular name, moved to the next live slot of
  // the same directory when the drawn one is deleted.
  std::pair<uint32_t, uint32_t> Draw(mks::Rng& rng) const;

  uint64_t seed_;
  mks::Rng rng_;  // the namespace writes' own stream
  mks::Kernel kernel_;
  SpanLog spans_;
  mks::PathWalker walker_;
  std::vector<Client> clients_;
  std::vector<uint32_t> popularity_;  // Zipf rank -> leaf * kSlots + slot
  std::vector<std::vector<Slot>> slots_;  // the namespace model
  std::vector<uint32_t> live_;            // live names per leaf
  std::deque<std::pair<uint32_t, uint32_t>> deleted_;  // (leaf, slot), oldest first
  uint64_t writes_ = 0;
};

std::pair<uint32_t, uint32_t> NameChurn::Draw(mks::Rng& rng) const {
  const uint32_t id = popularity_[rng.NextZipf(popularity_.size(), kZipfExponent)];
  const uint32_t leaf = id / kSlots;
  uint32_t slot = id % kSlots;
  while (!slots_[leaf][slot].live) {
    slot = (slot + 1) % kSlots;
  }
  return {leaf, slot};
}

std::string NameChurn::SetUp() {
  if (!kernel_.Boot().ok()) {
    return "boot failed";
  }
  mks::Acl dir_acl;
  dir_acl.Add(mks::AclEntry{"*", "Churn", mks::AccessModes::RWE()});
  auto setup = kernel_.processes().CreateProcess(
      mks::Subject{mks::Principal{"Setup", "Churn"}, mks::Label::SystemLow(), 4});
  if (!setup.ok()) {
    return "set-up process";
  }
  mks::ProcContext& bctx = *kernel_.processes().Context(*setup);
  for (uint32_t leaf = 0; leaf < kLeafDirs; ++leaf) {
    auto dir = walker_.CreateDirectories(bctx, LeafPath(leaf), dir_acl, mks::Label::SystemLow());
    if (!dir.ok()) {
      return "directory tree";
    }
    for (uint32_t slot = 0; slot < kSlots; ++slot) {
      if (!kernel_.gates()
               .CreateSegment(bctx, *dir, slots_[leaf][slot].Name(slot), SegmentAcl(false),
                              mks::Label::SystemLow())
               .ok()) {
        return "segment creation";
      }
    }
  }
  if (!kernel_.processes().DestroyProcess(*setup).ok()) {
    return "set-up teardown";
  }
  // Popularity: a seeded permutation of every name, ranked for Zipf draws.
  for (uint32_t id = 0; id < kLeafDirs * kSlots; ++id) {
    popularity_.push_back(id);
  }
  for (size_t i = popularity_.size() - 1; i > 0; --i) {
    std::swap(popularity_[i], popularity_[rng_.NextBelow(i + 1)]);
  }
  for (uint32_t c = 0; c < kClients; ++c) {
    clients_.emplace_back(seed_ * 0x9e3779b97f4a7c15ULL + c + 1);
    auto pid = kernel_.processes().CreateProcess(mks::Subject{
        mks::Principal{"Client" + std::to_string(c), "Churn"}, mks::Label::SystemLow(), 4});
    if (!pid.ok()) {
      return "client process";
    }
    clients_.back().pid = *pid;
  }
  return "";
}

bool NameChurn::Write(mks::ProcContext& ctx, uint64_t req, mks::EntryId dir, uint32_t leaf,
                      uint32_t slot) {
  mks::KernelGates& gates = kernel_.gates();
  Slot& s = slots_[leaf][slot];
  switch (writes_++ % 4) {
    case 0:
      if (!deleted_.empty()) {
        // Re-create the oldest deleted name; it is the only write that
        // targets a directory other than the one walked.
        const auto [dleaf, dslot] = deleted_.front();
        mks::Result<mks::EntryId> ddir = mks::Status(mks::Code::kInternal, "unset");
        {
          SpanScope span(spans_, "walk", Layer::kFs, req);
          ddir = walker_.Walk(ctx, LeafPath(dleaf));
        }
        Slot& d = slots_[dleaf][dslot];
        ++d.gen;
        SpanScope span(spans_, "create_segment", Layer::kGates, req);
        if (!ddir.ok() || !gates.CreateSegment(ctx, *ddir, d.Name(dslot), SegmentAcl(false),
                                               mks::Label::SystemLow())
                              .ok()) {
          return false;
        }
        deleted_.pop_front();
        d.live = true;
        ++live_[dleaf];
        return true;
      }
      [[fallthrough]];
    case 1: {
      const std::string old_name = s.Name(slot);
      ++s.gen;
      SpanScope span(spans_, "rename", Layer::kGates, req);
      return gates.Rename(ctx, dir, old_name, s.Name(slot)).ok();
    }
    case 2: {
      if (live_[leaf] <= kSlots / 2) {
        SpanScope span(spans_, "set_acl", Layer::kGates, req);
        return gates.SetAcl(ctx, dir, s.Name(slot), SegmentAcl(writes_ % 8 < 4)).ok();
      }
      SpanScope span(spans_, "delete", Layer::kGates, req);
      if (!gates.Delete(ctx, dir, s.Name(slot)).ok()) {
        return false;
      }
      s.live = false;
      --live_[leaf];
      deleted_.emplace_back(leaf, slot);
      return true;
    }
    default: {
      SpanScope span(spans_, "set_acl", Layer::kGates, req);
      return gates.SetAcl(ctx, dir, s.Name(slot), SegmentAcl(writes_ % 8 < 4)).ok();
    }
  }
}

bool NameChurn::Operate(uint32_t c) {
  SpanScope root(spans_, "operation", Layer::kBench, c);
  Client& client = clients_[c];
  mks::ProcContext* ctx = kernel_.processes().Context(client.pid);
  if (ctx == nullptr) {
    return false;
  }
  mks::KernelGates& gates = kernel_.gates();
  const double kind = client.rng.NextDouble();
  const auto [leaf, slot] = Draw(client.rng);
  mks::Result<mks::EntryId> dir = mks::Status(mks::Code::kInternal, "unset");
  {
    SpanScope span(spans_, "walk", Layer::kFs, c);
    dir = walker_.Walk(*ctx, LeafPath(leaf));
  }
  if (!dir.ok()) {
    return false;
  }
  if (kind < kWriteShare) {
    return Write(*ctx, c, *dir, leaf, slot);
  }
  if (kind < 0.85) {
    mks::Result<mks::EntryId> entry = mks::Status(mks::Code::kInternal, "unset");
    {
      SpanScope span(spans_, "search", Layer::kGates, c);
      entry = gates.Search(*ctx, *dir, slots_[leaf][slot].Name(slot));
    }
    if (!entry.ok() || kind < 0.45) {
      return entry.ok();
    }
    // Walk + initiate + terminate: the segment is made known and dropped.
    mks::Result<mks::Segno> segno = mks::Status(mks::Code::kInternal, "unset");
    {
      SpanScope span(spans_, "initiate", Layer::kGates, c);
      segno = gates.Initiate(*ctx, *entry);
    }
    if (!segno.ok()) {
      return false;
    }
    SpanScope span(spans_, "terminate", Layer::kGates, c);
    return gates.Terminate(*ctx, *segno).ok();
  }
  std::vector<std::string> names;
  SpanScope span(spans_, "list_names", Layer::kGates, c);
  return gates.ListNames(*ctx, *dir, &names).ok() && names.size() == live_[leaf];
}

std::string NameChurn::Verify() {
  mks::ProcContext& ctx = *kernel_.processes().Context(clients_[0].pid);
  for (uint32_t leaf = 0; leaf < kLeafDirs; ++leaf) {
    auto dir = walker_.Walk(ctx, LeafPath(leaf));
    std::vector<std::string> names;
    if (!dir.ok() || !kernel_.gates().ListNames(ctx, *dir, &names).ok()) {
      return "cannot list " + LeafPath(leaf);
    }
    std::vector<std::string> expected;
    for (uint32_t slot = 0; slot < kSlots; ++slot) {
      if (slots_[leaf][slot].live) {
        expected.push_back(slots_[leaf][slot].Name(slot));
      }
    }
    std::sort(names.begin(), names.end());
    std::sort(expected.begin(), expected.end());
    if (names != expected) {
      return LeafPath(leaf) + " differs from the namespace model";
    }
  }
  if (!kernel_.AuditIntegrity().empty()) {
    return "integrity audit: " + kernel_.AuditIntegrity().front();
  }
  if (!kernel_.Shutdown().ok()) {
    return "shutdown failed";
  }
  return "";
}

RunResult NameChurn::Run(const Stopwatch& setup) {
  RunResult out;
  out.cpus = kCpus;
  out.error = SetUp();
  out.setup_s = setup.Seconds();
  if (!out.error.empty()) {
    return out;
  }
  const MeasuredPhase phase(kernel_, walker_);
  std::vector<Cycles> first_due;
  for (Client& client : clients_) {
    first_due.push_back(phase.start() + ExpCycles(client.rng, kThinkMean));
  }
  RunClosedLoop(
      kernel_, first_due, kOps, [&](uint32_t c) { return Operate(c); },
      [&](uint32_t c) { return ExpCycles(clients_[c].rng, kThinkMean); }, &out);
  phase.Finish(&out);
  out.spans = spans_.Take();
  out.Seal();
  out.error = Verify();
  return out;
}

}  // namespace

RunResult RunNameChurn(uint64_t seed, bool trace) {
  const Stopwatch setup;
  return NameChurn(seed, trace).Run(setup);
}

}  // namespace perfbench
