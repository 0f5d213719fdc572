#pragma once

// State probes: named counter samplers that expose a subsystem's observable
// state to the virtual-time race detector (sim/race_detector.hpp).
//
// The platform engine (with its fault-recovery ledger and control bus) and
// its two subsystems (warm pool, provision pipeline) register a handful of
// cheap counters -- warm-worker totals, in-flight provisions, retries --
// under stable names.  The race detector samples every probe after a
// same-timestamp tie group fires; if a permutation of the group changes any
// sampled value, the first differing probe name localises the divergence to
// a subsystem.
//
// Registration order is the iteration order (deterministic by construction);
// the registry itself never mutates simulation state -- samplers must be
// pure reads.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace xanadu::sim {

/// One sampled probe: stable name plus the value read.
using ProbeSample = std::pair<std::string, std::uint64_t>;

class ProbeRegistry {
 public:
  /// A pure read of one counter.  Must not mutate simulation state.
  using Sampler = std::function<std::uint64_t()>;

  /// Registers a probe under `name` (names should be "subsystem.counter";
  /// duplicates are legal but make reports ambiguous -- avoid them).
  void add(std::string name, Sampler sampler);

  [[nodiscard]] std::size_t size() const { return probes_.size(); }
  [[nodiscard]] bool empty() const { return probes_.empty(); }

  /// Samples every probe, in registration order.
  [[nodiscard]] std::vector<ProbeSample> sample() const;

  /// FNV-1a digest over all probe names and current values; two equal
  /// digests mean every registered counter reads the same.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  std::vector<std::pair<std::string, Sampler>> probes_;
};

/// The name of the first probe whose value differs between two snapshots
/// taken from the same registry, or "" when they agree everywhere.  A length
/// mismatch (snapshots from different registries) reports the first
/// unpaired name.
[[nodiscard]] std::string first_probe_divergence(
    const std::vector<ProbeSample>& baseline,
    const std::vector<ProbeSample>& other);

}  // namespace xanadu::sim
