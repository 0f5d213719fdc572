#pragma once

// Request trace export: turns RequestResult node records into a CSV
// timeline, one row per workflow node, suitable for plotting Gantt-style
// charts of speculation behaviour or diffing runs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/request.hpp"
#include "workflow/dag.hpp"

namespace xanadu::metrics {

/// CSV header used by trace_csv().
[[nodiscard]] std::string trace_csv_header();

/// One CSV row per node of `result`, using function names from `dag`.
/// Columns: request, node, function, status, trigger_ms, exec_start_ms,
/// exec_end_ms, exec_duration_ms, cold, provision_wait_ms, retries, failed,
/// invoked_by.  `failed` is the request-level failure flag, repeated per row.
/// Integers render plain.  Millisecond columns are rendered from the
/// records' integer microseconds, as "%g" renders micros / 1e3 (see
/// write_millis() and Resolution below).  Function names are written raw,
/// which WorkflowDag::validate() keeps safe by rejecting names that contain
/// ',', ';', CR or LF.
[[nodiscard]] std::string trace_csv(const platform::RequestResult& result,
                                    const workflow::WorkflowDag& dag);

/// Appends the rows of `result` to `out` (no header).  This is the canonical
/// renderer: the batch trace_csv() overloads and the streaming consumer both
/// call it, so the streamed digest hashes the exact bytes batch rendering
/// produces.
void append_trace_csv(std::string& out, const platform::RequestResult& result,
                      const workflow::WorkflowDag& dag);

/// Same rows, but node function names come from `node_names` (index-aligned
/// with the dag's nodes) instead of dag lookups.  The streaming consumer
/// copies function names once per source and renders from those copies;
/// bytes are identical to the dag overload whenever
/// `node_names[i] == dag.node(i).fn.name`.
void append_trace_csv(std::string& out, const platform::RequestResult& result,
                      const std::vector<std::string>& node_names);

/// Room write_millis() needs at `out`.  The longest text, "-9.22337e+15",
/// is 12 characters, but the digits go out in fixed-size copies that may
/// reach 13 bytes past `out`.
inline constexpr std::size_t kMillisBufferSize = 16;

/// Writes `micros` as milliseconds at `out` and returns one past the last
/// character of the text.  The text is exactly what
/// std::to_chars(double(micros) / 1e3, std::chars_format::general, 6)
/// writes, i.e. "%g" with 6 significant digits, but comes from integer digit
/// extraction; every millisecond column of the trace goes through it.  It
/// may write up to kMillisBufferSize bytes at `out` whatever the text's
/// length: the bytes past the returned end are scratch.
char* write_millis(char* out, std::int64_t micros);

/// Concatenates the header and the rows of many results.
[[nodiscard]] std::string trace_csv(
    const std::vector<platform::RequestResult>& results,
    const workflow::WorkflowDag& dag);

// -- Trace digests ----------------------------------------------------------
//
// A stable 64-bit fingerprint of a run's emitted trace records, used by the
// seed-replay determinism tests (same seed => identical digest) and printable
// from run_workflow_cli via --digest.  The digest hashes the rendered CSV
// text, so it covers exactly what a human would diff: timings, statuses,
// cold flags, and invocation edges.  The hash is common::fnv1a (FNV-1a:
// byte-order-free, dependency-free, and stable across platforms).
//
// Resolution: millisecond columns render as "%g" (6 significant digits), so
// absolute times of 1e6 ms or more (about 16.7 virtual minutes) hash at
// 10 ms resolution and times of 1e7 ms or more (about 2.8 h) at 100 ms.
// Two runs that differ only below that resolution late in a long trace
// share a digest.

/// Digest of one request's trace rows.
[[nodiscard]] std::uint64_t trace_digest(const platform::RequestResult& result,
                                         const workflow::WorkflowDag& dag);

/// Digest of a whole run (header plus every result's rows, in order).
[[nodiscard]] std::uint64_t trace_digest(
    const std::vector<platform::RequestResult>& results,
    const workflow::WorkflowDag& dag);

/// Renders a digest as fixed-width lowercase hex ("0123456789abcdef").
[[nodiscard]] std::string digest_hex(std::uint64_t digest);

}  // namespace xanadu::metrics
