#include "metrics/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "metrics/trace.hpp"

namespace xanadu::metrics {

// -- RunStats ---------------------------------------------------------------

void RunStats::consume(const platform::RequestResult& result) {
  ++total;
  // Full-denominator stat: a speculation miss wasted real provisioning work
  // whether or not the request later failed (see RunOutcome::mean_missed_nodes).
  sum_missed_nodes += static_cast<double>(result.speculation.missed_nodes);
  if (result.failed) {
    ++failed;
    return;
  }
  sum_overhead_ms += result.overhead.millis();
  sum_end_to_end_ms += result.end_to_end.millis();
  sum_cold_starts += static_cast<double>(result.cold_starts);
  sum_workers += static_cast<double>(result.workers_provisioned);
  if (result.overhead > threshold) ++over_threshold;
}

void RunStats::merge(const RunStats& other) {
  // Checked before anything is written, so a rejected merge leaves *this
  // as it was.
  if (threshold != other.threshold) {
    throw std::invalid_argument{"RunStats::merge: threshold mismatch"};
  }
  total += other.total;
  failed += other.failed;
  sum_overhead_ms += other.sum_overhead_ms;
  sum_end_to_end_ms += other.sum_end_to_end_ms;
  sum_cold_starts += other.sum_cold_starts;
  sum_workers += other.sum_workers;
  sum_missed_nodes += other.sum_missed_nodes;
  over_threshold += other.over_threshold;
}

// -- LatencyHistogram -------------------------------------------------------

LatencyHistogram::LatencyHistogram(double bin_width_ms, std::size_t bins)
    : bin_width_ms_(bin_width_ms), counts_(bins, 0) {
  if (!(bin_width_ms > 0.0)) {
    throw std::invalid_argument{"LatencyHistogram: bin width must be positive"};
  }
}

void LatencyHistogram::record(double value_ms) {
  ++count_;
  max_recorded_ms_ = std::max(max_recorded_ms_, value_ms);
  if (value_ms < 0.0) value_ms = 0.0;
  const double scaled = value_ms / bin_width_ms_;
  if (counts_.empty() ||
      scaled >= static_cast<double>(counts_.size())) {
    ++overflow_;
    return;
  }
  ++counts_[static_cast<std::size_t>(scaled)];
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (bin_width_ms_ != other.bin_width_ms_ ||
      counts_.size() != other.counts_.size()) {
    throw std::invalid_argument{"LatencyHistogram::merge: shape mismatch"};
  }
  for (std::size_t bin = 0; bin < counts_.size(); ++bin) {
    counts_[bin] += other.counts_[bin];
  }
  count_ += other.count_;
  overflow_ += other.overflow_;
  max_recorded_ms_ = std::max(max_recorded_ms_, other.max_recorded_ms_);
}

double LatencyHistogram::quantile_ms(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t bin = 0; bin < counts_.size(); ++bin) {
    seen += counts_[bin];
    if (seen >= rank) {
      return static_cast<double>(bin + 1) * bin_width_ms_;
    }
  }
  // Quantile lands in the overflow bucket: the max is the only bound we have.
  return max_recorded_ms_;
}

double LatencyHistogram::fraction_above(double value_ms) const {
  // No sample lies strictly above the largest one recorded.  The bin scan
  // below cannot see that: past the last bin edge it counts every overflow
  // sample.
  if (count_ == 0 || value_ms >= max_recorded_ms_) return 0.0;
  // First bin whose whole range is STRICTLY above value_ms.  record() puts a
  // sample v into bin floor(v / w), so a threshold sitting exactly on a bin
  // edge k*w must exclude bin k: its samples can equal the threshold, and the
  // exact counter (RunStats::consume) counts only overhead > threshold.  The
  // pre-fix ceil() included bin k, silently flipping the boundary semantics
  // between the estimate and the exact counter.
  std::size_t first = 0;
  if (value_ms >= 0.0) {
    const double scaled = value_ms / bin_width_ms_;
    first = scaled >= static_cast<double>(counts_.size())
                ? counts_.size()
                : static_cast<std::size_t>(std::floor(scaled)) + 1;
  }
  std::uint64_t above = overflow_;
  for (std::size_t bin = first; bin < counts_.size(); ++bin) {
    above += counts_[bin];
  }
  return static_cast<double>(above) / static_cast<double>(count_);
}

// -- StreamingTrace ---------------------------------------------------------

StreamingTrace::StreamingTrace(StreamOptions options)
    : options_(std::move(options)),
      histogram_(options_.histogram_bin_ms, options_.histogram_bins) {
  // Digests are seeded with the header so a streamed run hashes exactly what
  // trace_csv(results, dag) renders: header first, then rows.
  digest_ = common::fnv1a(trace_csv_header());
  stats_.threshold = options_.over_threshold;
}

std::size_t StreamingTrace::add_source(const workflow::WorkflowDag& dag,
                                       std::string_view label) {
  Source source;
  source.label = label;
  source.node_names.reserve(dag.node_count());
  for (std::size_t i = 0; i < dag.node_count(); ++i) {
    source.node_names.push_back(dag.node(common::NodeId{i}).fn.name);
  }
  source.digest = common::fnv1a(trace_csv_header());
  source.stats.threshold = options_.over_threshold;
  sources_.push_back(std::move(source));
  return sources_.size() - 1;
}

void StreamingTrace::consume(std::size_t source,
                             const platform::RequestResult& result) {
  Source& lane = sources_.at(source);
  scratch_.clear();
  append_trace_csv(scratch_, result, lane.node_names);

  common::fnv1a_both(scratch_, digest_, lane.digest);

  stats_.consume(result);
  lane.stats.consume(result);
  if (!result.failed) histogram_.record(result.overhead.millis());
}

}  // namespace xanadu::metrics
