#include "metrics/streaming.hpp"

#include <algorithm>
#include <cctype>
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
  const double overhead_ms = result.overhead.millis();
  sum_overhead_ms += overhead_ms;
  sum_end_to_end_ms += result.end_to_end.millis();
  sum_cold_starts += static_cast<double>(result.cold_starts);
  sum_workers += static_cast<double>(result.workers_provisioned);
  if (result.overhead > threshold) ++over_threshold;
  // Welford update over completed-request overhead.
  const double n = static_cast<double>(completed());
  const double delta = overhead_ms - welford_mean;
  welford_mean += delta / n;
  welford_m2 += delta * (overhead_ms - welford_mean);
}

void RunStats::merge(const RunStats& other) {
  if (other.total == 0) return;
  if (total == 0) {
    const sim::Duration own_threshold = threshold;
    *this = other;
    threshold = own_threshold;
    if (threshold != other.threshold) {
      throw std::invalid_argument{"RunStats::merge: threshold mismatch"};
    }
    return;
  }
  if (threshold != other.threshold) {
    throw std::invalid_argument{"RunStats::merge: threshold mismatch"};
  }
  // Chan's parallel Welford update, before the counts change.
  const double na = static_cast<double>(completed());
  const double nb = static_cast<double>(other.completed());
  if (nb > 0.0) {
    if (na == 0.0) {
      welford_mean = other.welford_mean;
      welford_m2 = other.welford_m2;
    } else {
      const double delta = other.welford_mean - welford_mean;
      const double n = na + nb;
      welford_m2 += other.welford_m2 + delta * delta * na * nb / n;
      welford_mean += delta * nb / n;
    }
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

// -- CsvSpill ---------------------------------------------------------------

CsvSpill::CsvSpill(const std::string& path, std::size_t chunk_bytes)
    : out_(path, std::ios::binary | std::ios::trunc),
      chunk_bytes_(chunk_bytes == 0 ? 1 : chunk_bytes) {
  if (!out_) {
    throw std::runtime_error{"CsvSpill: cannot open " + path};
  }
  buffer_.reserve(chunk_bytes_);
}

CsvSpill::~CsvSpill() { finish(); }

void CsvSpill::append(std::string_view text) {
  buffer_.append(text);
  bytes_ += text.size();
  if (buffer_.size() >= chunk_bytes_) {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
}

void CsvSpill::finish() {
  if (!buffer_.empty()) {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
  out_.flush();
}

// -- replay_spill -----------------------------------------------------------

namespace {

bool is_unsigned_number(std::string_view field) {
  if (field.empty()) return false;
  for (const char c : field) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
  }
  return true;
}

// Default ostream double formatting: digits, optional sign/dot/exponent.
bool is_numeric(std::string_view field) {
  if (field.empty()) return false;
  bool digit = false;
  for (const char c : field) {
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      digit = true;
    } else if (c != '.' && c != '-' && c != '+' && c != 'e' && c != 'E') {
      return false;
    }
  }
  return digit;
}

SpillReplay reject(std::string error) {
  SpillReplay replay;
  replay.error = std::move(error);
  return replay;
}

}  // namespace

SpillReplay replay_spill(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return reject("cannot open " + path);
  std::string content{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
  if (in.bad()) return reject("read error");
  if (content.empty()) return reject("empty file");
  if (content.back() != '\n') {
    return reject("truncated: missing trailing newline");
  }

  SpillReplay replay;
  replay.digest = common::fnv1a(content);

  std::string_view rest{content};
  bool saw_header = false;
  std::uint64_t line_number = 0;
  while (!rest.empty()) {
    ++line_number;
    const std::size_t newline = rest.find('\n');
    const std::string_view line = rest.substr(0, newline);
    rest.remove_prefix(newline + 1);
    if (!saw_header) {
      if (std::string{line} + "\n" != trace_csv_header()) {
        return reject("bad header: " + std::string{line});
      }
      saw_header = true;
      continue;
    }
    // Structural validation: 13 comma-separated fields.
    std::vector<std::string_view> fields;
    std::string_view cursor = line;
    while (true) {
      const std::size_t comma = cursor.find(',');
      if (comma == std::string_view::npos) {
        fields.push_back(cursor);
        break;
      }
      fields.push_back(cursor.substr(0, comma));
      cursor.remove_prefix(comma + 1);
    }
    if (fields.size() != 13) {
      return reject("row " + std::to_string(line_number) +
                    ": expected 13 fields, got " + std::to_string(fields.size()));
    }
    // request, node, retries are unsigned integers; cold/failed are 0|1; the
    // four timing fields are either all present (numeric) or all empty.
    if (!is_unsigned_number(fields[0]) || !is_unsigned_number(fields[1])) {
      return reject("row " + std::to_string(line_number) + ": bad request/node id");
    }
    const bool timings_present = !fields[4].empty();
    for (std::size_t f = 4; f <= 7; ++f) {
      if (timings_present ? !is_numeric(fields[f]) : !fields[f].empty()) {
        return reject("row " + std::to_string(line_number) + ": bad timing field");
      }
    }
    if ((fields[8] != "0" && fields[8] != "1") || !is_numeric(fields[9]) ||
        !is_unsigned_number(fields[10]) ||
        (fields[11] != "0" && fields[11] != "1")) {
      return reject("row " + std::to_string(line_number) +
                    ": bad flag/numeric field");
    }
    ++replay.rows;
  }
  replay.ok = true;
  return replay;
}

// -- StreamingTrace ---------------------------------------------------------

StreamingTrace::StreamingTrace(StreamOptions options)
    : options_(std::move(options)),
      histogram_(options_.histogram_bin_ms, options_.histogram_bins) {
  // Digests are seeded with the header so a streamed run hashes exactly what
  // trace_csv(results, dag) renders: header first, then rows.
  digest_ = common::fnv1a(trace_csv_header());
  stats_.threshold = options_.over_threshold;
  if (options_.ring_capacity > 0) ring_.reserve(options_.ring_capacity);
  if (!options_.spill_path.empty()) {
    spill_ = std::make_unique<CsvSpill>(options_.spill_path,
                                        options_.spill_chunk_bytes);
    spill_->append(trace_csv_header());
  }
}

std::size_t StreamingTrace::add_source(const workflow::WorkflowDag& dag,
                                       std::string_view label) {
  Source source;
  source.dag = &dag;
  source.label = labels_.intern(label);
  source.node_names.reserve(dag.node_count());
  for (std::size_t i = 0; i < dag.node_count(); ++i) {
    source.node_names.push_back(
        labels_.view(labels_.intern(dag.node(common::NodeId{i}).fn.name)));
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

  digest_ = common::fnv1a(scratch_, digest_);
  lane.digest = common::fnv1a(scratch_, lane.digest);

  stats_.consume(result);
  lane.stats.consume(result);
  if (!result.failed) histogram_.record(result.overhead.millis());

  if (spill_) spill_->append(scratch_);

  if (options_.ring_capacity > 0) {
    if (ring_size_ < options_.ring_capacity) {
      ring_.push_back(result);
      ++ring_size_;
    } else {
      ring_[ring_start_] = result;
      ring_start_ = (ring_start_ + 1) % options_.ring_capacity;
    }
  }
}

void StreamingTrace::finish() {
  if (spill_) spill_->finish();
}

std::vector<platform::RequestResult> StreamingTrace::recent() const {
  std::vector<platform::RequestResult> out;
  out.reserve(ring_size_);
  for (std::size_t i = 0; i < ring_size_; ++i) {
    out.push_back(ring_[(ring_start_ + i) % ring_.size()]);
  }
  return out;
}

}  // namespace xanadu::metrics
