#include "metrics/trace.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>

#include "common/hash.hpp"

namespace xanadu::metrics {

namespace {

std::string_view status_name(platform::NodeStatus status) {
  switch (status) {
    case platform::NodeStatus::Pending: return "pending";
    case platform::NodeStatus::Triggered: return "triggered";
    case platform::NodeStatus::Executing: return "executing";
    case platform::NodeStatus::Completed: return "completed";
    case platform::NodeStatus::Skipped: return "skipped";
  }
  return "unknown";
}

char* write_uint(char* out, std::uint64_t value) {
  return std::to_chars(out, out + 20, value).ptr;  // 20 digits hold any value.
}

char* write_text(char* out, std::string_view text) {
  return std::copy(text.begin(), text.end(), out);
}

// Magnitudes from 2^53 us (about 285 virtual years) on are not exact
// doubles, so near-ties can round either way; they take std::to_chars.
constexpr std::uint64_t kExactMicros = 1ULL << 53;

// 10^0 through 10^15: enough for any magnitude below kExactMicros.
constexpr auto kPow10 = [] {
  std::array<std::uint64_t, 16> powers{};
  std::uint64_t power = 1;
  for (std::uint64_t& entry : powers) {
    entry = power;
    power *= 10;
  }
  return powers;
}();

// "00", "01", ..., "99": two characters per entry.
constexpr auto kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

void write_pair(char* out, std::uint64_t pair) {
  out[0] = kDigitPairs[2 * pair];
  out[1] = kDigitPairs[2 * pair + 1];
}

// Decimal digits of `value` (1 <= value < 2^53): floor(log10(2^bits)) from
// the bit width, then one table compare.
int decimal_digits(std::uint64_t value) {
  const int guess = std::bit_width(value) * 1233 >> 12;
  return guess + 1 - (value < kPow10[guess] ? 1 : 0);
}

template <int Digits>
std::uint64_t drop_digits(std::uint64_t value, std::uint64_t& dropped) {
  dropped = value % kPow10[Digits];
  return value / kPow10[Digits];
}

// value / 10^digits, with the remainder in `dropped`, for digits in [1, 10]
// (a value below 2^53 has at most 16 digits, 6 of which are kept).  Each
// case divides by a constant, which compiles to a multiply and a shift.
std::uint64_t drop_digits(std::uint64_t value, int digits,
                          std::uint64_t& dropped) {
  switch (digits) {
    case 1: return drop_digits<1>(value, dropped);
    case 2: return drop_digits<2>(value, dropped);
    case 3: return drop_digits<3>(value, dropped);
    case 4: return drop_digits<4>(value, dropped);
    case 5: return drop_digits<5>(value, dropped);
    case 6: return drop_digits<6>(value, dropped);
    case 7: return drop_digits<7>(value, dropped);
    case 8: return drop_digits<8>(value, dropped);
    case 9: return drop_digits<9>(value, dropped);
    default: return drop_digits<10>(value, dropped);
  }
}

// `micros` / 1000 lies exactly halfway between two 6-digit renderings.
// std::to_chars rounds the double nearest that quotient, which lies above or
// below the tie unless the quotient is itself a double.  The fused
// multiply-add yields the sign of (double * 1000 - micros) exactly; on an
// exact tie to_chars rounds half to even.  Pure decimal rounding would take
// 1,234,565 us up to "1234.57" (correct) and 12,345,650 us up to "12345.7"
// (to_chars writes "12345.6").
bool tie_rounds_up(std::uint64_t micros, std::uint64_t kept) {
  const double exact = static_cast<double>(micros);
  const double excess = std::fma(exact / 1e3, 1e3, -exact);
  return excess > 0.0 || (excess == 0.0 && kept % 2 == 1);
}

}  // namespace

char* write_millis(char* out, std::int64_t micros) {
  const std::uint64_t magnitude =
      micros < 0 ? 0 - static_cast<std::uint64_t>(micros)
                 : static_cast<std::uint64_t>(micros);
  if (magnitude >= kExactMicros) {
    return std::to_chars(out, out + kMillisBufferSize,
                         static_cast<double>(micros) / 1e3,
                         std::chars_format::general, 6)
        .ptr;
  }
  if (micros < 0) *out++ = '-';
  if (magnitude == 0) {
    *out = '0';
    return out + 1;
  }
  // `kept` holds six significant digits, trailing zeros included, and
  // `exponent` the decimal exponent of the leading digit in milliseconds,
  // after rounding (which is how "%g" picks fixed or scientific form).
  std::uint64_t kept = 0;
  int exponent = 0;
  const bool below_one = magnitude < 1000;
  if (below_one) {
    // "0.xyz" as "1xyz00", whose leading 1 is written as 0 below.
    kept = (1000 + magnitude) * 100;
  } else {
    const int digits = decimal_digits(magnitude);
    exponent = digits - 4;
    if (digits <= 6) {
      kept = magnitude * kPow10[6 - digits];
    } else {
      std::uint64_t dropped = 0;
      kept = drop_digits(magnitude, digits - 6, dropped);
      const std::uint64_t half = kPow10[digits - 6] / 2;
      if (dropped > half ||
          (dropped == half && tie_rounds_up(magnitude, kept))) {
        ++kept;
        if (kept == 1'000'000) {  // 999999.5 rounds to 1e+06.
          kept = 100'000;
          ++exponent;
        }
      }
    }
  }
  // Five spare bytes let the tail copy below have a fixed size.
  char digit[11] = {};
  write_pair(digit, kept / 10'000);
  write_pair(digit + 2, kept / 100 % 100);
  write_pair(digit + 4, kept % 100);
  if (below_one) digit[0] = '0';
  // "%g" drops trailing zeros.  They are counted without a branch: the low
  // digits of a replay's times are as good as random.
  const int zeros = (kept % 10 == 0) + (kept % 100 == 0) +
                    (kept % 1'000 == 0) + (kept % 10'000 == 0) +
                    (kept % 100'000 == 0);
  const int significant = 6 - zeros;
  // All six digits with the point after `whole` of them, in two fixed-size
  // copies; the returned end leaves out the point and zeros that do not
  // print.
  const int whole = exponent >= 6 ? 1 : exponent + 1;
  std::memcpy(out, digit, 6);
  std::memcpy(out + whole + 1, digit + whole, 5);
  out[whole] = '.';
  out += significant <= whole ? whole : significant + 1;
  if (exponent >= 6) {  // Scientific: at most "e+12" below 2^53 us.
    out[0] = 'e';
    out[1] = '+';
    out[2] = static_cast<char>('0' + exponent / 10);
    out[3] = static_cast<char>('0' + exponent % 10);
    out += 4;
  }
  return out;
}

namespace {

// Shared row renderer, parameterized on the node-name lookup so the dag and
// name-vector paths emit byte-identical text.  The numeric fields on each
// side of the function name render into a stack buffer that is appended in
// one piece: no stream, no locale, no temporary string.
template <typename NameOf>
void append_rows(std::string& text, const platform::RequestResult& result,
                 NameOf&& name_of) {
  // Room for the longer run of fields, the status through the failed flag:
  // a status of up to 9 characters, five millisecond fields with the room
  // write_millis() needs, a 20-digit retry count and the commas and flags.
  char buffer[1 + 9 + 1 + 4 * (kMillisBufferSize + 1) + 3 + kMillisBufferSize +
              1 + 20 + 3];
  for (std::size_t i = 0; i < result.node_records.size(); ++i) {
    const platform::NodeRecord& record = result.node_records[i];
    char* out = write_uint(buffer, result.id.value());
    *out++ = ',';
    out = write_uint(out, i);
    *out++ = ',';
    text.append(buffer, out);
    text += name_of(i);
    out = buffer;
    *out++ = ',';
    out = write_text(out, status_name(record.status));
    *out++ = ',';
    if (record.status == platform::NodeStatus::Completed) {
      out = write_millis(out, record.trigger_time.micros());
      *out++ = ',';
      out = write_millis(out, record.exec_start.micros());
      *out++ = ',';
      out = write_millis(out, record.exec_end.micros());
      *out++ = ',';
      out = write_millis(out, record.exec_duration.micros());
    } else {
      out = write_text(out, ",,,");
    }
    out = write_text(out, record.cold ? ",1," : ",0,");
    out = write_millis(out, record.provision_wait.micros());
    *out++ = ',';
    out = write_uint(out, record.retries);
    out = write_text(out, result.failed ? ",1," : ",0,");
    text.append(buffer, out);
    for (std::size_t p = 0; p < record.invoked_by.size(); ++p) {
      if (p > 0) text += ';';
      text += name_of(record.invoked_by[p].value());
    }
    text += '\n';
  }
}

}  // namespace

std::string trace_csv_header() {
  return "request,node,function,status,trigger_ms,exec_start_ms,exec_end_ms,"
         "exec_duration_ms,cold,provision_wait_ms,retries,failed,invoked_by\n";
}

void append_trace_csv(std::string& out, const platform::RequestResult& result,
                      const workflow::WorkflowDag& dag) {
  append_rows(out, result, [&dag](std::size_t node) -> const std::string& {
    return dag.node(common::NodeId{node}).fn.name;
  });
}

void append_trace_csv(std::string& out, const platform::RequestResult& result,
                      const std::vector<std::string>& node_names) {
  append_rows(out, result,
              [&node_names](std::size_t node) -> const std::string& {
                return node_names[node];
              });
}

std::string trace_csv(const platform::RequestResult& result,
                      const workflow::WorkflowDag& dag) {
  std::string out;
  append_trace_csv(out, result, dag);
  return out;
}

std::string trace_csv(const std::vector<platform::RequestResult>& results,
                      const workflow::WorkflowDag& dag) {
  std::string out = trace_csv_header();
  for (const auto& result : results) append_trace_csv(out, result, dag);
  return out;
}

std::uint64_t trace_digest(const platform::RequestResult& result,
                           const workflow::WorkflowDag& dag) {
  return common::fnv1a(trace_csv(result, dag));
}

std::uint64_t trace_digest(const std::vector<platform::RequestResult>& results,
                           const workflow::WorkflowDag& dag) {
  return common::fnv1a(trace_csv(results, dag));
}

std::string digest_hex(std::uint64_t digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[digest & 0xF];
    digest >>= 4;
  }
  return out;
}

}  // namespace xanadu::metrics
