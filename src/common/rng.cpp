#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#if defined(XANADU_RNG_TRACE)
#include <algorithm>
#include <mutex>
#include <set>
#include <string_view>
#include <utility>
#endif

namespace xanadu::common {

std::size_t Rng::weighted_index(const std::vector<double>& weights
                                    XANADU_RNG_SITE_DECL) {
  XANADU_RNG_RECORD();
  if (weights.empty()) {
    throw std::invalid_argument{"Rng::weighted_index: empty weights"};
  }
  double total = 0.0;
  for (const double weight : weights) {
    if (weight < 0.0) {
      throw std::invalid_argument{"Rng::weighted_index: negative weight"};
    }
    total += weight;
  }
  if (total <= 0.0) {
    throw std::invalid_argument{"Rng::weighted_index: all weights zero"};
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // Guard against floating-point underrun.
}

double Rng::exponential(double mean XANADU_RNG_SITE_DECL) {
  XANADU_RNG_RECORD();
  if (mean <= 0.0) throw std::invalid_argument{"Rng::exponential: mean <= 0"};
  // uniform() is in [0, 1); use 1 - u to avoid log(0).
  return -mean * std::log(1.0 - uniform());
}

double Rng::normal(double mean, double stddev XANADU_RNG_SITE_DECL) {
  XANADU_RNG_RECORD();
  if (stddev < 0.0) throw std::invalid_argument{"Rng::normal: stddev < 0"};
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

}  // namespace xanadu::common

#if defined(XANADU_RNG_TRACE)

namespace xanadu::common::rng_trace {

namespace {

/// Global interned draw-site set.  Guarded by site_mutex(): the sharded
/// drain (sim/sharded.hpp) runs shard-local Rngs on worker threads, and the
/// rng-trace CI job exercises those tests too.
std::set<std::string>& site_set() {
  static std::set<std::string> sites;
  return sites;
}

/// Call sites already recorded (or skipped), keyed by the compiler's file
/// name pointer and line, so a repeated draw costs one lookup and no heap
/// allocation.  Two pointers to one file just record it twice.
std::set<std::pair<const char*, std::uint_least32_t>>& seen_set() {
  static std::set<std::pair<const char*, std::uint_least32_t>> seen;
  return seen;
}

std::mutex& site_mutex() {
  static std::mutex mutex;
  return mutex;
}

/// Normalises a compiler-reported path to start at a repository-root
/// component (src/, bench/, tests/, tools/, examples/) so labels match the
/// repo-relative paths tools/xan_lint.py emits.  Falls back to the
/// basename for paths outside the repository (standard library headers).
std::string normalise(std::string_view path) {
  static constexpr std::string_view kRoots[] = {"src/", "bench/", "tests/",
                                                "tools/", "examples/"};
  std::size_t best = std::string_view::npos;
  for (const std::string_view root : kRoots) {
    // Match "/<root>" so "mysrc/" style prefixes cannot alias.
    for (std::size_t at = path.find(root); at != std::string_view::npos;
         at = path.find(root, at + 1)) {
      if (at == 0 || path[at - 1] == '/') {
        if (best == std::string_view::npos || at < best) best = at;
        break;
      }
    }
  }
  if (best != std::string_view::npos) return std::string{path.substr(best)};
  const std::size_t slash = path.rfind('/');
  return std::string{slash == std::string_view::npos
                         ? path
                         : path.substr(slash + 1)};
}

}  // namespace

void record(const std::source_location& site) {
  const std::lock_guard<std::mutex> lock(site_mutex());
  if (!seen_set().insert({site.file_name(), site.line()}).second) return;
  const std::string path = normalise(site.file_name());
  // Internal delegation (uniform() calling next(), Box-Muller calling
  // uniform()) reports sites inside the Rng implementation itself; skip
  // them so the set holds only outermost textual draw sites.
  if (path == "src/common/rng.hpp" || path == "src/common/rng.cpp") return;
  // Draw-site tracing builds only; handlers reach this record() only
  // through same-named calls (LatencyHistogram::record).
  // lint:allow(hot-path-text) see above
  site_set().insert(path + ":" + std::to_string(site.line()));
}

std::vector<std::string> observed_sites() {
  const std::lock_guard<std::mutex> lock(site_mutex());
  return {site_set().begin(), site_set().end()};
}

void clear() {
  const std::lock_guard<std::mutex> lock(site_mutex());
  site_set().clear();
  seen_set().clear();
}

}  // namespace xanadu::common::rng_trace

#endif  // XANADU_RNG_TRACE
