#pragma once

// Deterministic random number generation.
//
// All stochastic behaviour in the simulation (arrival processes, XOR-branch
// sampling, latency jitter, random tree generation) flows through Rng
// instances seeded explicitly by the experiment.  Nothing in the codebase
// touches std::random_device or the wall clock, which keeps every experiment
// bit-reproducible across runs and machines.
//
// Stream discipline (machine-checked by tools/xan_lint.py, rule
// `shared-rng-draw`): never draw from a shared/ambient stream -- a member
// Rng of a long-lived object -- inside event-handler or tied-batch code,
// because same-timestamp events then race for draws and firing order decides
// which value lands where.  Same-instant work derives its own stream with
// fork_stream() and a stable key ((function, worker), request id, ...)
// instead; fork() is only safe where call order is itself part of the
// deterministic contract (component setup, generator loops).
//
// Compiling with -DXANADU_RNG_TRACE (CMake option of the same name) makes
// every draw record its call site into an interned global set, which the
// flow-analysis cross-validation test diffs against the statically
// predicted draw sites (tests/rng_trace_test.cpp).  The flag changes no
// drawn values and therefore no digests.

#include <cstdint>
#include <stdexcept>
#include <vector>

#if defined(XANADU_RNG_TRACE)
#include <source_location>
#include <string>

namespace xanadu::common::rng_trace {

/// Interns the call site of one Rng draw.  Sites inside common/rng.{hpp,cpp}
/// (internal delegation, e.g. uniform() calling next()) are ignored so the
/// observed set holds only the outermost textual draw sites -- the same
/// granularity tools/xan_lint.py predicts.
void record(const std::source_location& site);

/// Observed draw sites so far, as sorted "path:line" labels with the path
/// normalised to start at src/, bench/, tests/, tools/ or examples/.
[[nodiscard]] std::vector<std::string> observed_sites();

/// Forgets all recorded sites (test isolation).
void clear();

}  // namespace xanadu::common::rng_trace

// Appended to every draw signature: with tracing on, each draw method gains
// a defaulted std::source_location carrying the caller's file:line.
#define XANADU_RNG_SITE_ONLY \
  const std::source_location& xanadu_rng_site = std::source_location::current()
#define XANADU_RNG_SITE \
  , const std::source_location& xanadu_rng_site = std::source_location::current()
#define XANADU_RNG_SITE_ONLY_DECL const std::source_location& xanadu_rng_site
#define XANADU_RNG_SITE_DECL , const std::source_location& xanadu_rng_site
#define XANADU_RNG_RECORD() ::xanadu::common::rng_trace::record(xanadu_rng_site)
#else
#define XANADU_RNG_SITE_ONLY
#define XANADU_RNG_SITE
#define XANADU_RNG_SITE_ONLY_DECL
#define XANADU_RNG_SITE_DECL
#define XANADU_RNG_RECORD() ((void)0)
#endif

namespace xanadu::common {

/// SplitMix64 -- used to expand a single 64-bit seed into a full xoshiro
/// state.  Reference: Sebastiano Vigna's public-domain implementation notes.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** -- fast, high-quality 64-bit PRNG suitable for simulation.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    stream_id_ = seed;
    SplitMix64 sm{seed};
    for (auto& word : state_) word = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()(XANADU_RNG_SITE_ONLY) {
    XANADU_RNG_RECORD();
    return step();
  }

  std::uint64_t next(XANADU_RNG_SITE_ONLY) {
    XANADU_RNG_RECORD();
    return step();
  }

  /// Uniform double in [0, 1).
  double uniform(XANADU_RNG_SITE_ONLY) {
    XANADU_RNG_RECORD();
    return static_cast<double>(step() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi XANADU_RNG_SITE) {
    XANADU_RNG_RECORD();
    if (hi < lo) throw std::invalid_argument{"Rng::uniform: hi < lo"};
    return lo + (hi - lo) * (static_cast<double>(step() >> 11) * 0x1.0p-53);
  }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n XANADU_RNG_SITE) {
    XANADU_RNG_RECORD();
    if (n == 0) throw std::invalid_argument{"Rng::uniform_int: n == 0"};
    // Lemire's rejection method for unbiased bounded generation.
    std::uint64_t x = step();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (low < threshold) {
        x = step();
        m = static_cast<__uint128_t>(x) * n;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p XANADU_RNG_SITE) {
    XANADU_RNG_RECORD();
    return static_cast<double>(step() >> 11) * 0x1.0p-53 < p;
  }

  /// Samples an index from an (unnormalised) non-negative weight vector.
  /// Throws if the vector is empty or all weights are zero.
  std::size_t weighted_index(const std::vector<double>& weights
                                 XANADU_RNG_SITE);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean XANADU_RNG_SITE);

  /// Normally distributed value (Box-Muller); useful for latency jitter.
  double normal(double mean, double stddev XANADU_RNG_SITE);

  /// Derives an independent child generator by CONSUMING one parent draw;
  /// used to give each component of an experiment its own stream at setup
  /// time.  Because it advances the parent, the child depends on how many
  /// draws preceded it -- never fork() inside same-timestamp work; use
  /// fork_stream() with a stable key there.
  Rng fork(XANADU_RNG_SITE_ONLY) {
    XANADU_RNG_RECORD();
    return Rng{step() ^ 0xd1b54a32d192ed03ULL};
  }

  /// Derives an independent child generator from a stable key WITHOUT
  /// touching parent state: two calls with the same key return identical
  /// streams no matter how many draws or forks happened in between, so
  /// same-timestamp (tied) work keyed on stable ids -- (function, worker),
  /// request id -- gets order-independent randomness.  This is the fix for
  /// the speculative provision-batch race the virtual-time race detector
  /// pinned (see ARCHITECTURE.md "RNG stream discipline").
  [[nodiscard]] Rng fork_stream(std::uint64_t key) const {
    SplitMix64 sm{stream_id_ ^
                  (0x9e3779b97f4a7c15ULL * (key + 0x632be59bd9b4e019ULL))};
    return Rng{sm.next()};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Advances the xoshiro256** state by one draw (untraced core).
  std::uint64_t step() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  std::uint64_t state_[4]{};
  /// Seed identity captured at reseed(); the stable base fork_stream()
  /// derives children from (draws never change it).
  std::uint64_t stream_id_ = 0;
};

}  // namespace xanadu::common
