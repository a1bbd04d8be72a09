// Shared helpers for kernel-level tests.
#ifndef MKS_TESTS_KERNEL_FIXTURE_H_
#define MKS_TESTS_KERNEL_FIXTURE_H_

#include <memory>
#include <string>

#include "bench/workload.h"
#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace mks {

inline Subject TestSubject(const std::string& person = "Jones", uint8_t level = 0,
                           uint32_t compartments = 0) {
  return Subject{Principal{person, "Projx"}, Label(level, compartments), /*ring=*/4};
}

// The tests' compute + paged-write mix: six processes U0..U5, compute every
// third op, otherwise op n of process i writes 7n+i into its own segment.
constexpr workload::Shape TestMix(uint32_t ops, uint32_t quantum = 0, uint32_t pages = 10) {
  return workload::Shape{.kind = workload::Kind::kComputeWrite,
                         .processes = 6,
                         .pages = pages,
                         .ops = ops,
                         .compute = 25,
                         .quantum = quantum,
                         .populate = false,
                         .value_per_op = 7,
                         .value_per_process = 1,
                         .person = "U"};
}

inline Acl OwnerOnlyAcl(const std::string& person) {
  Acl acl;
  acl.Add(AclEntry{person, "Projx", AccessModes::RWE()});
  return acl;
}

// Lets posted page transfers land: idles the machine to its next event,
// releases what fell due, then runs every kernel task (the page-I/O daemon,
// which completes the released reads, among them).
inline void RunPostedIo(Kernel& kernel) {
  KernelContext& k = kernel.ctx();
  if (!k.events.empty() && k.events.next_due() > k.clock.now()) {
    const Cycles idle = k.events.next_due() - k.clock.now();
    k.clock.Advance(idle);
    k.smp.AdvanceAll(idle);
  }
  k.events.RunDue(k.clock.now());
  (void)kernel.vprocs().RunKernelTasks();
}

// One reference made outside the scheduler and run to completion: while the
// page is in transit (kBlocked), the posted I/O runs and the reference
// retries.
inline Result<Word> SettledRead(Kernel& kernel, ProcContext& ctx, Segno segno,
                                uint32_t offset) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto value = kernel.gates().Read(ctx, segno, offset);
    if (value.status().code() != Code::kBlocked) {
      return value;
    }
    RunPostedIo(kernel);
  }
  return Status(Code::kInternal, "page never arrived");
}

inline Status SettledWrite(Kernel& kernel, ProcContext& ctx, Segno segno, uint32_t offset,
                           Word value) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    Status st = kernel.gates().Write(ctx, segno, offset, value);
    if (st.code() != Code::kBlocked) {
      return st;
    }
    RunPostedIo(kernel);
  }
  return Status(Code::kInternal, "page never arrived");
}

// A booted kernel plus one logged-in test process.
struct KernelFixture {
  explicit KernelFixture(KernelConfig config = KernelConfig{}) : kernel(config) {
    boot_status = kernel.Boot();
    if (boot_status.ok()) {
      auto created = kernel.processes().CreateProcess(TestSubject());
      if (created.ok()) {
        pid = *created;
        ctx = kernel.processes().Context(pid);
      }
    }
  }

  // Creates (dirs as needed) + initiates a segment; dies on failure.
  Segno MustCreate(const std::string& path) {
    PathWalker walker(&kernel.gates());
    auto entry = walker.CreateSegment(*ctx, path, WorldAcl(), Label::SystemLow());
    EXPECT_TRUE(entry.ok()) << path << ": " << entry.status();
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    EXPECT_TRUE(segno.ok()) << path << ": " << segno.status();
    return *segno;
  }

  Kernel kernel;
  Status boot_status;
  ProcessId pid{};
  ProcContext* ctx = nullptr;
};

}  // namespace mks

#endif  // MKS_TESTS_KERNEL_FIXTURE_H_
