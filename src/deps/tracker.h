// Runtime inter-module call tracking.
//
// The paper stresses that "inside an operating system careful analysis is
// required to identify all intermodule dependencies" — loops hide in
// exception paths and resource controls added last.  CallTracker makes that
// analysis executable: every object-manager operation opens a ManagerScope
// (src/sim/scope.h) naming its module, and a module frame nested in another
// module's frame is observed here as a caller->callee edge.  Tests then
// assert that the observed call structure of the new kernel is a subset of
// its declared lattice, and that the baseline supervisor's observed structure
// really contains the loops of Figure 3.
#ifndef MKS_DEPS_TRACKER_H_
#define MKS_DEPS_TRACKER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/deps/graph.h"

namespace mks {

class CallTracker {
 public:
  // Registers (or finds) a module in the observed graph.
  ModuleId Register(std::string_view name) { return observed_.AddModule(name); }

  // Records that `caller`'s frame called into `callee`.
  void Observe(ModuleId caller, ModuleId callee) {
    observed_.AddEdge(caller, callee, DepKind::kComponent);
  }

  const DependencyGraph& observed() const { return observed_; }

  // Observed edges absent from `declared` (matched by module name; the
  // dependency kind of a call edge is a design annotation, so any declared
  // kind legitimizes the call).  An empty result means the implementation
  // conforms to its declared dependency structure.
  std::vector<std::string> UndeclaredEdges(const DependencyGraph& declared) const;

 private:
  DependencyGraph observed_;
};

}  // namespace mks

#endif  // MKS_DEPS_TRACKER_H_
