// The paper's "specialized file storage and management system": a
// network-connected file service with mandatory AIM labels.  Documents at
// several sensitivity levels are stored and served; the reference monitor
// enforces simple security and the *-property on every operation, and the
// audit log shows what an integrity auditor would review.
//
//   ./build/examples/example_secure_file_service
#include <cstdio>
#include <string>

#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace {

std::string Outcome(const mks::Status& s) { return s.ok() ? "ALLOWED" : s.ToString(); }

}  // namespace

int main() {
  using namespace mks;

  KernelConfig config;
  // A hardened root: only the file-service daemon may write top-level names.
  config.root_acl = Acl{};
  config.root_acl.Add(AclEntry{"*", "FileSvc", AccessModes::RW()});
  config.root_acl.Add(AclEntry{"*", "*", AccessModes::R()});
  Kernel kernel{config};
  if (!kernel.Boot().ok()) {
    return 1;
  }

  // The service daemon builds per-level document libraries.  Directory
  // labels rise with the shelf level ("upgraded" directories).
  Subject daemon{Principal{"Curator", "FileSvc"}, Label::SystemLow(), 4};
  auto daemon_pid = kernel.processes().CreateProcess(daemon);
  ProcContext* svc = kernel.processes().Context(*daemon_pid);
  PathWalker walker(&kernel.gates());

  Acl shelf_acl;
  shelf_acl.Add(AclEntry{"*", "*", AccessModes::RW()});
  struct Shelf {
    const char* name;
    Label label;
  };
  const Shelf shelves[] = {
      {"public", Label(0, 0)},
      {"confidential", Label(1, 0)},
      {"secret", Label(3, 0)},
  };
  auto docs = kernel.gates().CreateDirectory(*svc, kernel.gates().RootId(), "docs", shelf_acl,
                                             Label::SystemLow());
  for (const Shelf& shelf : shelves) {
    auto dir = kernel.gates().CreateDirectory(*svc, *docs, shelf.name, shelf_acl, shelf.label);
    if (!dir.ok()) {
      std::printf("shelf %s: %s\n", shelf.name, dir.status().ToString().c_str());
    }
  }

  // Per-level writers deposit documents (writers must run AT the shelf level
  // to write there: write-equal).
  struct Writer {
    const char* person;
    Label label;
    const char* shelf;
    const char* doc;
  };
  const Writer writers[] = {
      {"Pressman", Label(0, 0), "public", "newsletter"},
      {"Analyst", Label(1, 0), "confidential", "forecast"},
      {"Cryptographer", Label(3, 0), "secret", "keys"},
  };
  for (const Writer& w : writers) {
    Subject subject{Principal{w.person, "Gov"}, w.label, 4};
    auto pid = kernel.processes().CreateProcess(subject);
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, std::string(">docs>") + w.shelf + ">" + w.doc,
                                      shelf_acl, w.label);
    if (entry.ok()) {
      auto segno = kernel.gates().Initiate(*ctx, *entry);
      (void)kernel.gates().Write(*ctx, *segno, 0, 0x5eC2e7);
      std::printf("deposit %-12s -> >docs>%s>%s at %s\n", w.person, w.shelf, w.doc,
                  w.label.ToString().c_str());
    } else {
      std::printf("deposit %-12s FAILED: %s\n", w.person, entry.status().ToString().c_str());
    }
  }

  // A confidential-level reader exercises the mandatory policy.
  std::printf("\nreader at L1{} attempts:\n");
  Subject reader{Principal{"Officer", "Gov"}, Label(1, 0), 4};
  auto reader_pid = kernel.processes().CreateProcess(reader);
  ProcContext* rd = kernel.processes().Context(*reader_pid);

  struct Attempt {
    const char* what;
    const char* path;
    bool write;
  };
  const Attempt attempts[] = {
      {"read the public newsletter (read down)", ">docs>public>newsletter", false},
      {"read the confidential forecast (read equal)", ">docs>confidential>forecast", false},
      {"read the secret keys (READ UP)", ">docs>secret>keys", false},
      {"write the public newsletter (WRITE DOWN)", ">docs>public>newsletter", true},
      {"write the confidential forecast (write equal)", ">docs>confidential>forecast", true},
  };
  for (const Attempt& a : attempts) {
    auto segno = walker.Initiate(*rd, a.path);
    Status result = segno.status();
    if (segno.ok()) {
      result = a.write ? kernel.gates().Write(*rd, *segno, 1, 42)
                       : kernel.gates().Read(*rd, *segno, 0).status();
    }
    std::printf("  %-46s %s\n", a.what, Outcome(result).c_str());
  }

  // What the integrity auditor reviews afterwards.
  const auto& audit = kernel.ctx().monitor.audit_log();
  std::printf("\naudit log: %llu decisions, %llu denials; last denials:\n",
              (unsigned long long)audit.total_count(),
              (unsigned long long)audit.denial_count());
  int shown = 0;
  for (size_t i = audit.size(); i-- > 0 && shown < 5;) {
    const AuditRecord& rec = audit.at(i);
    if (rec.outcome != Code::kOk) {
      std::printf("  t=%-8llu %-16s %-18s %-12s %s\n", (unsigned long long)rec.time,
                  rec.subject.c_str(), rec.operation.c_str(), rec.target.c_str(),
                  std::string(CodeName(rec.outcome)).c_str());
      ++shown;
    }
  }
  return 0;
}
