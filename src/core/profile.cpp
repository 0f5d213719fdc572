#include "core/profile.hpp"

#include <algorithm>

namespace xanadu::core {

common::Ema& ProfileTable::gap_ema(NodeId parent, NodeId child) {
  std::vector<Gap>& gaps = invoke_gaps_.try_emplace(parent);
  auto at = std::lower_bound(
      gaps.begin(), gaps.end(), child,
      [](const Gap& gap, NodeId key) { return gap.child < key; });
  if (at == gaps.end() || at->child != child) {
    at = gaps.insert(at, Gap{child, common::Ema{alpha_}});
  }
  return at->ema;
}

void ProfileTable::observe_invoke_gap(NodeId parent, NodeId child,
                                      sim::Duration gap) {
  gap_ema(parent, child).observe(gap.millis());
}

void ProfileTable::restore_invoke_gap(NodeId parent, NodeId child,
                                      double value_ms, std::size_t count) {
  gap_ema(parent, child).restore(value_ms, count);
}

sim::Duration ProfileTable::invoke_gap(NodeId parent, NodeId child,
                                       const ProfileFallbacks& fb) const {
  if (const std::vector<Gap>* gaps = invoke_gaps_.find(parent)) {
    for (const Gap& gap : *gaps) {
      if (gap.child == child) {
        return sim::Duration::from_millis(
            gap.ema.value_or(fb.invoke_gap.millis()));
      }
    }
  }
  return fb.invoke_gap;
}

}  // namespace xanadu::core
