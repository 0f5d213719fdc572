#include "sim/race_detector.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/rng.hpp"
#include "sim/audit.hpp"
#include "sim/probe.hpp"

namespace xanadu::sim {

namespace {

/// Tie groups up to this size are replayed under every permutation.
constexpr std::size_t kExhaustiveGroupLimit = 4;
/// Seed for permutation sampling; fixed so reports reproduce.
constexpr std::uint64_t kSampleSeed = 0x9e3779b97f4a7c15ULL;

/// All non-identity permutations of {0..n-1}, in lexicographic order.
std::vector<std::vector<std::uint32_t>> all_permutations(std::size_t n) {
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  std::vector<std::vector<std::uint32_t>> out;
  while (std::next_permutation(order.begin(), order.end())) {
    out.push_back(order);  // next_permutation skips the identity start.
  }
  return out;
}

/// `count` seeded Fisher-Yates shuffles of {0..n-1}, identity excluded
/// (re-drawn), deduplicated so a group is never replayed twice under the
/// same order.
std::vector<std::vector<std::uint32_t>> sampled_permutations(
    std::size_t n, std::size_t count, common::Rng& rng) {
  std::vector<std::vector<std::uint32_t>> out;
  std::vector<std::uint32_t> identity(n);
  for (std::uint32_t i = 0; i < n; ++i) identity[i] = i;
  // Bounded attempts: for tiny n there may be fewer distinct non-identity
  // permutations than requested.
  for (std::size_t attempt = 0; attempt < count * 8 && out.size() < count;
       ++attempt) {
    std::vector<std::uint32_t> order = identity;
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j = rng.uniform_int(i);
      std::swap(order[i - 1], order[j]);
    }
    if (order == identity) continue;
    if (std::find(out.begin(), out.end(), order) != out.end()) continue;
    out.push_back(std::move(order));
  }
  return out;
}

std::string divergent_probe_for(const RunObservation& baseline,
                                const RunObservation& permuted,
                                std::size_t group_index) {
  if (group_index >= baseline.ties.groups.size() ||
      group_index >= permuted.ties.groups.size()) {
    return {};
  }
  return first_probe_divergence(
      baseline.ties.groups[group_index].probes_after,
      permuted.ties.groups[group_index].probes_after);
}

}  // namespace

RaceReport check_tie_races(const ScenarioRunner& runner,
                           const RaceCheckOptions& options) {
  RaceReport report;
  const RunObservation baseline = runner(nullptr);
  report.groups_examined = baseline.ties.groups.size();
  common::Rng sample_rng{kSampleSeed};

  for (const TieGroup& group : baseline.ties.groups) {
    const std::size_t n = group.events.size();
    XANADU_AUDIT(n > 1, "tie recorder surfaced a singleton group");
    if (n < 2) continue;

    const std::vector<std::vector<std::uint32_t>> orders =
        n <= kExhaustiveGroupLimit
            ? all_permutations(n)
            : sampled_permutations(n, options.sampled_permutations,
                                   sample_rng);

    for (const std::vector<std::uint32_t>& order : orders) {
      if (options.max_replays != 0 &&
          report.permutations_run >= options.max_replays) {
        report.truncated = true;
        return report;
      }
      TiePermutation permutation;
      permutation.group_index = group.index;
      permutation.order = order;
      const RunObservation permuted = runner(&permutation);
      ++report.permutations_run;
      if (permuted.digest == baseline.digest) continue;

      TieRace race;
      race.group_index = group.index;
      race.when = group.when;
      race.labels.reserve(n);
      for (const TieEvent& event : group.events) {
        race.labels.push_back(event.label);
      }
      race.divergent_order = order;
      race.baseline_digest = baseline.digest;
      race.permuted_digest = permuted.digest;
      race.first_divergent_probe =
          divergent_probe_for(baseline, permuted, group.index);
      report.races.push_back(std::move(race));
      break;  // The group's first race is the one reported.
    }
  }
  return report;
}

std::string RaceReport::to_string() const {
  std::ostringstream out;
  out << "race check: " << groups_examined << " tie group(s), "
      << permutations_run << " permutation replay(s)";
  if (truncated) out << " [truncated by max_replays]";
  out << ": " << (races.empty() ? "no order-dependence detected"
                                : std::to_string(races.size()) +
                                      " race(s) detected")
      << "\n";
  for (const TieRace& race : races) {
    out << "  tie group #" << race.group_index << " at t="
        << race.when.micros() << "us {";
    for (std::size_t i = 0; i < race.labels.size(); ++i) {
      if (i > 0) out << ", ";
      out << (race.labels[i].empty() ? "<unlabeled>" : race.labels[i]);
    }
    out << "} diverges under order [";
    for (std::size_t i = 0; i < race.divergent_order.size(); ++i) {
      if (i > 0) out << ", ";
      out << race.divergent_order[i];
    }
    out << "]: digest " << std::hex << race.baseline_digest << " -> "
        << race.permuted_digest << std::dec;
    if (!race.first_divergent_probe.empty()) {
      out << "; first divergent probe: " << race.first_divergent_probe;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace xanadu::sim
