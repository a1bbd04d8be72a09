// The reference monitor: every kernel gate consults it before touching an
// object on behalf of a subject.
//
// A decision combines discretionary access (the object's ACL) with the
// mandatory AIM checks (simple security for observation, the *-property for
// modification).  Every denial is recorded in the audit log, which is what an
// integrity auditor — or the tiger-team example — reads afterwards.
#ifndef MKS_AIM_MONITOR_H_
#define MKS_AIM_MONITOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "src/aim/acl.h"
#include "src/aim/label.h"
#include "src/common/status.h"
#include "src/sim/clock.h"
#include "src/sim/metrics.h"

namespace mks {

struct Subject {
  Principal principal;
  Label label;
  uint8_t ring = 4;  // user ring; ring 0 is the kernel
};

struct AuditRecord {
  Cycles time = 0;
  std::string subject;
  std::string operation;
  std::string target;
  Code outcome = Code::kOk;
};

// The audit trail: the last `capacity` records in a fixed ring, overwritten
// in place.  A record's subject and target are the concatenations of their
// parts, written into the slot's own strings, so once every slot has held a
// record as long as the next one an append allocates nothing.  Texts are
// kept whole: entry names have no length limit.
class AuditLog {
 public:
  explicit AuditLog(size_t capacity = 4096) : capacity_(capacity) {}

  void Append(Cycles time, std::initializer_list<std::string_view> subject,
              std::string_view operation, std::initializer_list<std::string_view> target,
              Code outcome);
  // Records held: min(total_count, capacity).
  size_t size() const { return slots_.size(); }
  // The i-th record held, oldest first.
  const AuditRecord& at(size_t i) const { return slots_[(next_ + i) % slots_.size()]; }
  uint64_t denial_count() const { return denials_; }
  uint64_t total_count() const { return total_; }

 private:
  size_t capacity_;
  std::vector<AuditRecord> slots_;  // grows to capacity_, then wraps
  size_t next_ = 0;                 // slot the next append overwrites, once full
  uint64_t denials_ = 0;
  uint64_t total_ = 0;
};

enum class FlowDirection : uint8_t {
  kObserve,  // information flows object -> subject (read, execute, list)
  kModify,   // information flows subject -> object (write, append, delete)
};

class ReferenceMonitor {
 public:
  ReferenceMonitor(Clock* clock, Metrics* metrics)
      : clock_(clock),
        metrics_(metrics),
        id_flow_checks_(metrics->Intern("aim.flow_checks")),
        id_flow_denials_(metrics->Intern("aim.flow_denials")) {}

  // Mandatory (AIM) check only.
  Status CheckFlow(const Subject& subject, const Label& object_label, FlowDirection dir);

  // Full decision: discretionary ACL modes plus the mandatory check.
  // `operation`/`target` feed the audit trail.
  Status CheckAccess(const Subject& subject, const Acl& acl, const Label& object_label,
                     FlowDirection dir, bool need_read, bool need_write, bool need_execute,
                     std::string_view operation, std::string_view target);

  // Records an access decision made elsewhere (e.g. hardware access bits).
  // The target is the concatenation of `target`'s parts.
  void Audit(const Subject& subject, std::string_view operation,
             std::initializer_list<std::string_view> target, Code outcome);

  const AuditLog& audit_log() const { return audit_; }

 private:
  Clock* clock_;
  Metrics* metrics_;
  MetricId id_flow_checks_;
  MetricId id_flow_denials_;
  AuditLog audit_;
};

}  // namespace mks

#endif  // MKS_AIM_MONITOR_H_
