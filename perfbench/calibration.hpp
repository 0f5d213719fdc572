#pragma once

// Host-speed calibration for the host-time metrics.  On a shared host the
// core speed the benchmark gets drifts by tens of percent within a minute
// (other tenants' load, the host's clock), and every replay and set-up drifts
// with it.  The calibration loop is a fixed integer kernel that lives in the
// benchmark's own files, so no change to the simulator can move it: timed
// right next to a measurement, it tells how fast the core was running.

#include <cstdint>

namespace perfbench {

/// The calibration loop's time on the reference host at full speed (4-vCPU
/// Intel Xeon, Sapphire Rapids, -O2; the fastest loops seen there take
/// 0.028-0.029 s).  A host time is scaled by this over a loop timed next to
/// it, to read as the time the reference host would take at full speed.
inline constexpr double kCalibrationReferenceS = 0.028;

/// `seconds` measured on this host, scaled to the reference host's speed by
/// `calibration_s`, the loop timed next to it.
inline double at_reference_speed(double seconds, double calibration_s) {
  return seconds * kCalibrationReferenceS / calibration_s;
}

/// Runs the calibration loop once and returns its host wall time in seconds.
/// `checksum` receives the loop's result, which is fixed.
double calibration_loop_s(std::uint64_t& checksum);

/// The loop's fixed result.
inline constexpr std::uint64_t kCalibrationChecksum = 4579613391098830928ull;

}  // namespace perfbench
