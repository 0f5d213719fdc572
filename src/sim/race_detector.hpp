#pragma once

// Virtual-time race detector (DPOR-lite over same-timestamp tie groups).
//
// The simulator orders same-virtual-timestamp events by scheduling sequence
// -- a total order that makes replay deterministic but proves nothing about
// whether the order *matters*.  If two events tied at time T do not commute
// (their pop order changes observable engine state), every digest this
// repository pins is one heap-perturbing refactor away from silently
// changing: exactly the class of bug the (when, seq) total-order fix of the
// event-queue rework papered over once.
//
// This harness mechanically checks commutativity.  A baseline run records
// every non-singleton tie group (via Simulator::set_tie_recorder); each
// group is then replayed under bounded order permutations
// (Simulator::set_tie_permutation):
//
//   * groups of size <= 4 are replayed under ALL n!-1 non-identity
//     permutations,
//   * larger groups under `sampled_permutations` seeded random shuffles
//     (deterministic: sampling uses common::Rng with a fixed seed).
//
// A group's replays stop at its first divergent permutation: the remaining
// permutations of that group rarely add information.
//
// Each replay rebuilds the world from scratch through the caller-supplied
// ScenarioRunner (state snapshot/restore of an arbitrary engine is not
// feasible; full re-runs are, because simulated runs are cheap).  A replay
// whose final digest differs from the baseline is a race: the report names
// the guilty tie group, its event labels, the divergent order, and -- when
// a ProbeRegistry was attached -- the first subsystem counter that diverged
// right after the group fired.
//
// Cost: O(sum over groups of min(n!, samples)) full runs.  This is analysis
// tooling for tests and smoke benches, not a production-path feature.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {

struct RaceCheckOptions {
  /// Random (seeded) shuffles replayed for groups of more than 4 events.
  std::size_t sampled_permutations = 8;
  /// Upper bound on replays across the whole check (safety valve for
  /// tie-heavy scenarios); 0 means unbounded.
  std::size_t max_replays = 4096;
};

/// What one scenario run observed: the run's final digest (trace digest,
/// probe digest, anything the runner folds in) plus the tie trace.
struct RunObservation {
  std::uint64_t digest = 0;
  TieRecorder ties;
};

/// Rebuilds the scenario world from scratch and runs it to completion.
/// `permutation` is nullptr for the baseline run; otherwise the runner must
/// attach it to the fresh simulator (set_tie_permutation) before running.
/// The runner must also attach a TieRecorder and return it in the
/// observation, and should attach a ProbeRegistry when subsystem
/// localisation is wanted.
using ScenarioRunner =
    std::function<RunObservation(const TiePermutation* permutation)>;

/// One confirmed order-dependence.
struct TieRace {
  std::size_t group_index = 0;
  TimePoint when;
  /// Event labels in baseline (seq) order; "" for unlabeled sites.
  std::vector<std::string> labels;
  /// The permuted firing order (positions into `labels`) that diverged.
  std::vector<std::uint32_t> divergent_order;
  std::uint64_t baseline_digest = 0;
  std::uint64_t permuted_digest = 0;
  /// First probe whose post-group value diverged, or "" when the divergence
  /// only surfaced later (trace rows, downstream groups).
  std::string first_divergent_probe;
};

struct RaceReport {
  /// Non-singleton tie groups the baseline run exposed.
  std::size_t groups_examined = 0;
  /// Scenario replays executed (excluding the baseline).
  std::size_t permutations_run = 0;
  /// True when max_replays cut the search short.
  bool truncated = false;
  std::vector<TieRace> races;

  [[nodiscard]] bool race_free() const { return races.empty(); }
  /// Human-readable multi-line report (one block per race).
  [[nodiscard]] std::string to_string() const;
};

/// Runs the full check: baseline, then bounded permutation replays of every
/// non-singleton tie group.  Deterministic for a deterministic runner.
[[nodiscard]] RaceReport check_tie_races(const ScenarioRunner& runner,
                                         const RaceCheckOptions& options = {});

}  // namespace xanadu::sim
