#include "src/aim/monitor.h"

#include <sstream>

namespace mks {

std::string Label::ToString() const {
  std::ostringstream out;
  out << "L" << static_cast<int>(level_) << "{";
  bool first = true;
  for (int i = 0; i < kCompartments; ++i) {
    if (compartments_ & (1u << i)) {
      if (!first) {
        out << ",";
      }
      out << i;
      first = false;
    }
  }
  out << "}";
  return out.str();
}

std::string AccessModes::ToString() const {
  std::string s;
  s += read ? 'r' : '-';
  s += write ? 'w' : '-';
  s += execute ? 'e' : '-';
  return s;
}

void AuditLog::Append(Cycles time, std::initializer_list<std::string_view> subject,
                      std::string_view operation, std::initializer_list<std::string_view> target,
                      Code outcome) {
  ++total_;
  if (outcome != Code::kOk) {
    ++denials_;
  }
  if (capacity_ == 0) {
    return;
  }
  AuditRecord* slot = nullptr;
  if (slots_.size() < capacity_) {
    if (slots_.empty()) {
      slots_.reserve(capacity_);
    }
    slot = &slots_.emplace_back();
  } else {
    slot = &slots_[next_];
    next_ = (next_ + 1) % capacity_;
  }
  slot->time = time;
  slot->subject.clear();
  for (std::string_view part : subject) {
    slot->subject += part;
  }
  slot->operation.assign(operation);
  slot->target.clear();
  for (std::string_view part : target) {
    slot->target += part;
  }
  slot->outcome = outcome;
}

Status ReferenceMonitor::CheckFlow(const Subject& subject, const Label& object_label,
                                   FlowDirection dir) {
  metrics_->Inc(id_flow_checks_);
  if (dir == FlowDirection::kObserve) {
    // Simple security: no read up.
    if (!subject.label.Dominates(object_label)) {
      metrics_->Inc(id_flow_denials_);
      return Status(Code::kNoAccess, "simple-security violation");
    }
  } else {
    // *-property: no write down.
    if (!object_label.Dominates(subject.label)) {
      metrics_->Inc(id_flow_denials_);
      return Status(Code::kNoAccess, "*-property violation");
    }
  }
  return Status::Ok();
}

Status ReferenceMonitor::CheckAccess(const Subject& subject, const Acl& acl,
                                     const Label& object_label, FlowDirection dir,
                                     bool need_read, bool need_write, bool need_execute,
                                     std::string_view operation, std::string_view target) {
  Status status = Status::Ok();
  const AccessModes modes = acl.ModesFor(subject.principal);
  if ((need_read && !modes.read) || (need_write && !modes.write) ||
      (need_execute && !modes.execute)) {
    status = Status(Code::kNoAccess, "acl denies " + std::string(operation));
  } else {
    status = CheckFlow(subject, object_label, dir);
    if (status.ok() && need_write && dir == FlowDirection::kObserve) {
      // A combined observe+modify request must satisfy both properties.
      status = CheckFlow(subject, object_label, FlowDirection::kModify);
    }
  }
  Audit(subject, operation, {target}, status.code());
  return status;
}

void ReferenceMonitor::Audit(const Subject& subject, std::string_view operation,
                             std::initializer_list<std::string_view> target, Code outcome) {
  // The subject reads as Principal::ToString does: person.project.
  audit_.Append(clock_->now(), {subject.principal.person, ".", subject.principal.project},
                operation, target, outcome);
}

}  // namespace mks
