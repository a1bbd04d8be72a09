#include "src/sim/scope.h"

namespace mks {

void ScopeStack::Push(ModuleId module, ProfDomain activity) {
  ModuleId caller = frames_.empty() ? kNoModule : frames_.back().caller;
  if (module == kBarrier) {
    caller = module = kNoModule;
  } else if (module != kNoModule) {
    if (caller != kNoModule && caller != module) {
      tracker_->Observe(caller, module);
    }
    caller = module;
  }
  frames_.push_back(
      Frame{prof_ != nullptr ? prof_->Enter(module, activity) : Prof::kNoNode, caller});
}

void ScopeStack::Pop() {
  if (prof_ != nullptr) {
    prof_->Leave(frames_.back().resume);
  }
  frames_.pop_back();
}

}  // namespace mks
