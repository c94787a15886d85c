#pragma once

// Output check of the benchmark: every reported conjunction is validated on
// its own, and the report as a whole is compared with a reference event
// list built by the grid screener and confirmed pair by pair with the dense
// encounter scan.

#include <cstddef>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/report.hpp"
#include "propagation/propagator.hpp"

namespace perfbench {

struct CheckSettings {
  double threshold_km = 2.0;
  double t_begin = 0.0;
  double t_end = 7200.0;
  /// Reference events with |PCA - d| below this are exempt from the
  /// completeness check: whether they fall in or out is rounding.
  double exempt_band_km = 0.05;
  /// Two events of one pair closer than this in TCA are the same event.
  double tca_window_s = 5.0;
  /// A reported event matched to a reference event must have its PCA to
  /// this tolerance (the tolerance confirm_events accepts the reference to).
  double pca_tolerance_km = 1e-3;
  /// Reported PCA must equal the propagator's distance at the reported TCA
  /// to this tolerance.
  double distance_tolerance_km = 1e-6;
  /// Events of one pair closer than this in TCA are duplicates.
  double duplicate_window_s = 1.0;
};

CheckSettings check_settings(const scod::ScreeningConfig& config);

/// Result of checking one report. `problems` holds a readable line for the
/// first few failures.
struct CheckResult {
  std::size_t reported = 0;
  std::size_t invalid = 0;    ///< reported events failing validation
  std::size_t reference = 0;  ///< non-exempt reference events
  std::size_t matched = 0;    ///< non-exempt reference events found
  std::size_t missed = 0;     ///< non-exempt reference events not found
  std::size_t pca_off = 0;    ///< reference events found with another PCA
  std::size_t extra = 0;      ///< non-exempt reported events not in the reference
  std::vector<std::string> problems;
};

/// Validates each reported event: pair indices in range and a < b, PCA <= d,
/// TCA inside the span, distance at TCA equal to PCA, canonical
/// (a, b, tca) order, no duplicates.
void validate_events(const std::vector<scod::Conjunction>& report,
                     const scod::Propagator& propagator,
                     const CheckSettings& settings, CheckResult& result);

/// Matches the report against the reference: each non-exempt reference
/// event must have a reported event of the same pair within the TCA window
/// (else it is missed), and the nearest such event must have the reference
/// PCA within pca_tolerance_km (else it is pca_off). With `count_extra`,
/// non-exempt reported events absent from the reference are counted too
/// (for an output documented to equal the reference).
void match_reference(const std::vector<scod::Conjunction>& report,
                     const std::vector<scod::Conjunction>& reference,
                     const CheckSettings& settings, bool count_extra,
                     CheckResult& result);

/// Reference event list I/O: one "a b tca pca" line per event, '#' lines
/// are comments. Throws std::runtime_error on I/O or parse failure.
std::vector<scod::Conjunction> read_reference(const std::string& path);
void write_reference(const std::string& path, const std::string& header,
                     const std::vector<scod::Conjunction>& events);

/// Confirms each event with scan_encounters on a window around its TCA:
/// kept when the scan finds a minimum of the pair within 1 s and 1 m of it.
/// Returns the confirmed events; `rejected` counts the others.
std::vector<scod::Conjunction> confirm_events(const std::vector<scod::Conjunction>& events,
                                              const scod::Propagator& propagator,
                                              const CheckSettings& settings,
                                              std::size_t& rejected);

}  // namespace perfbench
