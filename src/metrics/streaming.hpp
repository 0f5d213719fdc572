#pragma once

// Streaming trace consumer: constant-memory metrics for million-request runs.
//
// The batch path (metrics::trace) renders every RequestResult it is handed;
// retaining all of them made peak RSS grow linearly with run length (230 MiB
// at 100k requests, ~2.3 GiB extrapolated at 1M).  StreamingTrace consumes
// each result once, in submission order, and keeps only:
//
//   - an incremental FNV-1a digest over the exact bytes the batch
//     trace_csv() renderer would have produced (header first, then each
//     result's rows in consume order) -- so a streamed run's digest is
//     byte-identical to trace_digest() over the retained vector, including
//     the six pinned GoldenDigestGuard values;
//   - online aggregates (RunStats): plain sums folded in submission order
//     (bit-identical to a batch loop over the results), cold-start
//     fraction, and the fraction-over-threshold counter;
//   - a fixed-bin latency histogram for tail quantiles.
//
// Per-source (tenant) lanes mirror the aggregate: each source gets its own
// digest and RunStats, folded in the source's own arrival order (the merged
// order restricted to one source), matching MixedOutcome::per_source.
//
// Each source copies its label and its nodes' function names once, in
// add_source(), so the per-row renderer makes no name string.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "platform/request.hpp"
#include "sim/time.hpp"
#include "workflow/dag.hpp"

namespace xanadu::metrics {

/// Configuration for StreamingTrace.  The defaults keep everything bounded
/// and cheap.
struct StreamOptions {
  /// Latency histogram: `histogram_bins` bins of `histogram_bin_ms` each,
  /// recording completed-request overhead; values past the last bin land in
  /// an explicit overflow bucket.
  double histogram_bin_ms = 1.0;
  std::size_t histogram_bins = 512;
  /// Threshold for the exact fraction-over counter.  RunOutcome::fraction_over
  /// answers exactly for this threshold only, with or without retained
  /// results; any other threshold gets the histogram's estimate.  A caller
  /// that reports a fraction over some threshold sets it here.
  sim::Duration over_threshold = sim::Duration::from_millis(100);
};

/// Online per-request aggregates.  Sums are folded in consume order, which
/// the workload harness guarantees is submission-slot order, so a loop over
/// the retained results in that order derives bit-identical means, not
/// merely close ones (streaming_metrics_test keeps that loop as its
/// reference).
struct RunStats {
  /// Threshold the over_threshold counter was folded against (copied from
  /// StreamOptions::over_threshold by StreamingTrace).
  sim::Duration threshold = sim::Duration::from_millis(100);
  std::uint64_t total = 0;
  std::uint64_t failed = 0;
  double sum_overhead_ms = 0.0;
  double sum_end_to_end_ms = 0.0;
  double sum_cold_starts = 0.0;
  double sum_workers = 0.0;
  /// Over *all* requests (failed included), like RunOutcome::mean_missed_nodes.
  double sum_missed_nodes = 0.0;
  /// Completed requests with overhead strictly over the configured threshold.
  std::uint64_t over_threshold = 0;

  void consume(const platform::RequestResult& result);

  /// Folds another lane's sums and counts into this one.  Thresholds must
  /// match: a mismatch throws std::invalid_argument and leaves this lane
  /// unchanged.  Used by the sharded runner to combine per-shard lanes in
  /// shard order -- the merge is pure arithmetic over the operands, so it is
  /// deterministic for a deterministic merge order.
  void merge(const RunStats& other);

  [[nodiscard]] std::uint64_t completed() const { return total - failed; }
  [[nodiscard]] double completion_rate() const {
    if (total == 0) return 1.0;
    return static_cast<double>(completed()) / static_cast<double>(total);
  }
  [[nodiscard]] double mean_overhead_ms() const {
    return completed() == 0 ? 0.0
                            : sum_overhead_ms / static_cast<double>(completed());
  }
  [[nodiscard]] double mean_end_to_end_ms() const {
    return completed() == 0
               ? 0.0
               : sum_end_to_end_ms / static_cast<double>(completed());
  }
  [[nodiscard]] double mean_cold_starts() const {
    return completed() == 0 ? 0.0
                            : sum_cold_starts / static_cast<double>(completed());
  }
  [[nodiscard]] double mean_workers_per_request() const {
    return completed() == 0 ? 0.0
                            : sum_workers / static_cast<double>(completed());
  }
  [[nodiscard]] double mean_missed_nodes() const {
    return total == 0 ? 0.0
                      : sum_missed_nodes / static_cast<double>(total);
  }
  [[nodiscard]] double fraction_over_threshold() const {
    return completed() == 0 ? 0.0
                            : static_cast<double>(over_threshold) /
                                  static_cast<double>(completed());
  }
};

/// Fixed-bin latency histogram with an explicit overflow bucket.  Bounded
/// memory regardless of run length; quantiles are bin-upper-edge estimates
/// (exact to within one bin width for in-range samples).
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(double bin_width_ms, std::size_t bins);

  void record(double value_ms);

  /// Adds another histogram's counts bin-by-bin.  Shapes (bin width and bin
  /// count) must match.
  void merge(const LatencyHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] double bin_width_ms() const { return bin_width_ms_; }
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin_count(std::size_t bin) const {
    return counts_[bin];
  }
  [[nodiscard]] double max_recorded_ms() const { return max_recorded_ms_; }

  /// Upper edge of the bin containing the q-quantile (q in [0, 1]); the
  /// exact max for quantiles that land in the overflow bucket; 0 when empty.
  [[nodiscard]] double quantile_ms(double q) const;

  /// Estimated fraction of recorded samples strictly above `value_ms`: counts
  /// bins whose whole range lies strictly above it, plus overflow -- exact to
  /// within one bin width inside the bin range.  A threshold on an exact bin
  /// edge k*w excludes bin k (whose samples may equal the threshold),
  /// matching the strict `>` of RunStats' exact counter.  Exactly 0 when
  /// empty or when `value_ms` is at or above max_recorded_ms(); for a
  /// threshold between the last bin edge and that maximum, every overflow
  /// sample counts, so the result is an upper bound.
  [[nodiscard]] double fraction_above(double value_ms) const;

 private:
  double bin_width_ms_ = 1.0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t overflow_ = 0;
  double max_recorded_ms_ = 0.0;
};

/// The streaming consumer.  Register every source (workflow dag + label)
/// up front, then feed each completed result exactly once, in global
/// submission order; per-source lanes see their own sub-order automatically.
class StreamingTrace {
 public:
  explicit StreamingTrace(StreamOptions options = {});

  StreamingTrace(const StreamingTrace&) = delete;
  StreamingTrace& operator=(const StreamingTrace&) = delete;

  /// Registers a source; returns its index.  Function names and the label
  /// are copied here, once, so neither `dag` nor `label` need outlive the
  /// trace.
  std::size_t add_source(const workflow::WorkflowDag& dag, std::string_view label);

  /// Folds one completed result into the aggregate and its source's lane.
  void consume(std::size_t source, const platform::RequestResult& result);

  // -- Aggregate --------------------------------------------------------------
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] const RunStats& stats() const { return stats_; }
  [[nodiscard]] const LatencyHistogram& histogram() const { return histogram_; }

  // -- Per-source lanes -------------------------------------------------------
  [[nodiscard]] std::uint64_t source_digest(std::size_t source) const {
    return sources_[source].digest;
  }
  [[nodiscard]] const RunStats& source_stats(std::size_t source) const {
    return sources_[source].stats;
  }
  [[nodiscard]] std::string_view source_label(std::size_t source) const {
    return sources_[source].label;
  }

  [[nodiscard]] const StreamOptions& options() const { return options_; }

 private:
  struct Source {
    std::string label;
    /// Function names, index-aligned with dag nodes.
    std::vector<std::string> node_names;
    std::uint64_t digest = 0;
    RunStats stats;
  };

  StreamOptions options_;
  std::vector<Source> sources_;
  std::uint64_t digest_ = 0;
  RunStats stats_;
  LatencyHistogram histogram_;
  /// Reused row-render buffer; cleared per consume, capacity retained.
  std::string scratch_;
};

}  // namespace xanadu::metrics
