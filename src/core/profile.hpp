#pragma once

// Learned per-function runtime profiles (paper Section 3.2.2).
//
// Xanadu profiles "the runtime characteristics of the functions comprising a
// workflow and estimates their cold-start time, worker startup time and
// warm-start runtime using an exponential moving average function.  For
// implicit functions, we also measure the delay after which a parent node
// invokes its child."  These profiles feed the JIT deployment planner
// (Algorithm 2) and its implicit-chain variant.

#include <vector>

#include "common/ema.hpp"
#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "sim/time.hpp"

namespace xanadu::core {

using common::NodeId;

/// Defaults used before any observation exists for a function.  Conservative
/// values matching Docker-container behaviour: the planner deploys slightly
/// too early on the first requests and tightens as profiles converge.
struct ProfileFallbacks {
  sim::Duration cold_response = sim::Duration::from_millis(4500);
  sim::Duration startup = sim::Duration::from_millis(3200);
  sim::Duration warm_response = sim::Duration::from_millis(1000);
  sim::Duration invoke_gap = sim::Duration::from_millis(1000);
};

/// EMA-smoothed timing profile of one workflow node's function.
class FunctionProfile {
 public:
  explicit FunctionProfile(double alpha = 0.3)
      : cold_response_(alpha), startup_(alpha), warm_response_(alpha) {}

  /// Total response under cold conditions: trigger -> execution end.
  void observe_cold_response(sim::Duration d) { cold_response_.observe(d.millis()); }
  /// Sandbox provisioning wait experienced by a cold request.
  void observe_startup(sim::Duration d) { startup_.observe(d.millis()); }
  /// Total response under warm conditions: trigger -> execution end
  /// (the paper uses this as the estimate of a function's lifetime).
  void observe_warm_response(sim::Duration d) { warm_response_.observe(d.millis()); }

  [[nodiscard]] sim::Duration cold_response(const ProfileFallbacks& fb) const {
    return sim::Duration::from_millis(
        cold_response_.value_or(fb.cold_response.millis()));
  }
  [[nodiscard]] sim::Duration startup(const ProfileFallbacks& fb) const {
    return sim::Duration::from_millis(startup_.value_or(fb.startup.millis()));
  }
  [[nodiscard]] sim::Duration warm_response(const ProfileFallbacks& fb) const {
    return sim::Duration::from_millis(
        warm_response_.value_or(fb.warm_response.millis()));
  }

  // Persistence accessors (core::MetadataStore).
  [[nodiscard]] const common::Ema& cold_response_ema() const { return cold_response_; }
  [[nodiscard]] const common::Ema& startup_ema() const { return startup_; }
  [[nodiscard]] const common::Ema& warm_response_ema() const { return warm_response_; }
  [[nodiscard]] common::Ema& cold_response_ema() { return cold_response_; }
  [[nodiscard]] common::Ema& startup_ema() { return startup_; }
  [[nodiscard]] common::Ema& warm_response_ema() { return warm_response_; }

 private:
  common::Ema cold_response_;
  common::Ema startup_;
  common::Ema warm_response_;
};

/// Profile table for one workflow: per-node function profiles plus per-edge
/// invoke-gap estimates (trigger-to-trigger delay between a parent and the
/// child it invokes; used by the implicit-chain JIT variant).  Both are
/// indexed by node id -- the gaps by parent, each parent's list ordered by
/// child -- so the metadata store bounds an id before it reaches them.
class ProfileTable {
 public:
  explicit ProfileTable(double alpha = 0.3) : alpha_(alpha) {}

  [[nodiscard]] FunctionProfile& function(NodeId node) {
    return functions_.try_emplace(node, alpha_);
  }
  [[nodiscard]] const FunctionProfile* find_function(NodeId node) const {
    return functions_.find(node);
  }

  void observe_invoke_gap(NodeId parent, NodeId child, sim::Duration gap);
  [[nodiscard]] sim::Duration invoke_gap(NodeId parent, NodeId child,
                                         const ProfileFallbacks& fb) const;

  [[nodiscard]] double alpha() const { return alpha_; }

  // -- Persistence (core::MetadataStore) -----------------------------------

  /// Visits every (node, profile) pair in ascending node order, so that
  /// persisted documents and digests are reproducible.
  template <typename Fn>
  void for_each_function(Fn&& fn) const {
    functions_.for_each(fn);
  }

  /// Visits every learned invoke-gap EMA as (parent, child, ema), ordered by
  /// (parent, child) for the same reproducibility reason.
  template <typename Fn>
  void for_each_invoke_gap(Fn&& fn) const {
    invoke_gaps_.for_each([&fn](NodeId parent, const std::vector<Gap>& gaps) {
      for (const Gap& gap : gaps) fn(parent, gap.child, gap.ema);
    });
  }

  /// Restores a persisted invoke-gap EMA state.
  void restore_invoke_gap(NodeId parent, NodeId child, double value_ms,
                          std::size_t count);

 private:
  /// One learned invoke gap, from the parent whose list holds it.
  struct Gap {
    NodeId child;
    common::Ema ema;
  };

  /// The gap EMA of parent -> child, created when absent.
  common::Ema& gap_ema(NodeId parent, NodeId child);

  double alpha_;
  common::IdTable<NodeId, FunctionProfile> functions_;
  /// Per parent, ascending by child.
  common::IdTable<NodeId, std::vector<Gap>> invoke_gaps_;
};

}  // namespace xanadu::core
