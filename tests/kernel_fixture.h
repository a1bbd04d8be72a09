// Shared helpers for kernel-level tests.
#ifndef MKS_TESTS_KERNEL_FIXTURE_H_
#define MKS_TESTS_KERNEL_FIXTURE_H_

#include <memory>
#include <string>

#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace mks {

inline Subject TestSubject(const std::string& person = "Jones", uint8_t level = 0,
                           uint32_t compartments = 0) {
  return Subject{Principal{person, "Projx"}, Label(level, compartments), /*ring=*/4};
}

// `prefix` followed by `n` ("U" + std::to_string(n) trips GCC 12's
// -Wrestrict false positive when inlined into a by-value argument).
inline std::string Numbered(std::string prefix, uint64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

inline Acl WorldAcl() {
  Acl acl;
  acl.Add(AclEntry{"*", "*", AccessModes::RWE()});
  return acl;
}

inline Acl OwnerOnlyAcl(const std::string& person) {
  Acl acl;
  acl.Add(AclEntry{person, "Projx", AccessModes::RWE()});
  return acl;
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
