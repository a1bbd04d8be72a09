#include "src/sim/prof.h"

#include <string>

namespace mks {

std::array<Cycles, kProfDomainCount> Prof::DomainTotals() const {
  std::array<Cycles, kProfDomainCount> totals{};
  for (const Lane& lane : lanes_) {
    for (const Node& node : lane.nodes) {
      if (node.parent == kNoNode) {
        continue;  // synthetic root
      }
      totals[static_cast<size_t>(node.domain)] += node.self;
    }
  }
  return totals;
}

std::map<std::pair<std::string, ProfDomain>, Cycles> Prof::Cells(uint16_t cpu) const {
  std::map<std::pair<std::string, ProfDomain>, Cycles> cells;
  if (cpu >= lanes_.size()) {
    return cells;
  }
  for (const Node& node : lanes_[cpu].nodes) {
    if (node.parent == kNoNode || node.self == 0) {
      continue;  // synthetic root, or a cell that never held cycles
    }
    cells[{ManagerName(node.manager), node.domain}] += node.self;
  }
  return cells;
}

std::string Prof::ManagerName(ModuleId id) const {
  if (id == kNoModule) {
    return std::string();
  }
  return id.value < managers_.size() && !managers_[id.value].empty()
             ? managers_[id.value]
             : "module" + std::to_string(id.value);
}

std::string Prof::Label(const Node& node) const {
  const std::string manager = ManagerName(node.manager);
  return manager.empty() ? ProfDomainName(node.domain)
                         : manager + ":" + ProfDomainName(node.domain);
}

std::string Prof::CollapsedStacks() const {
  std::string out;
  for (uint16_t cpu = 0; cpu < lanes_.size(); ++cpu) {
    std::vector<std::string> prefix{"cpu" + std::to_string(cpu)};
    Walk(lanes_[cpu], 0, 1, [&](const Node& node, int depth) {
      prefix.resize(depth);
      prefix.push_back(Label(node));
      if (node.self > 0) {
        for (size_t i = 0; i < prefix.size(); ++i) {
          out += (i == 0 ? "" : ";") + prefix[i];
        }
        out += ' ';
        out += std::to_string(node.self) + '\n';
      }
    });
  }
  return out;
}

void Prof::DumpTree(FILE* out) const {
  if (!enabled_) {
    std::fprintf(out, "  profiler disabled (set KernelConfig::profile.enabled for cell trees)\n");
    return;
  }
  for (uint16_t cpu = 0; cpu < lanes_.size(); ++cpu) {
    const Lane& lane = lanes_[cpu];
    std::fprintf(out, "  cpu %u: attributed %llu / accrued %llu cycles\n", cpu,
                 static_cast<unsigned long long>(lane.attributed),
                 static_cast<unsigned long long>(lane.accrued));
    Walk(lane, 0, 1, [&](const Node& node, int depth) {
      const double share = lane.attributed > 0 ? 100.0 * static_cast<double>(node.self) /
                                                     static_cast<double>(lane.attributed)
                                               : 0.0;
      std::fprintf(out, "  %*s%-16s %12llu  (%5.1f%% self)\n", depth * 2, "",
                   Label(node).c_str(), static_cast<unsigned long long>(node.self), share);
    });
  }
}

}  // namespace mks
