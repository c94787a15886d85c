#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/screen.hpp"
#include "verify/adversarial.hpp"
#include "verify/oracle.hpp"

namespace scod::verify {

/// Paper-consistent matching tolerances of the differential runner.
struct DiffTolerances {
  /// TCA matching window [s]: events of one pair within this window are
  /// the same physical minimum (candidates from adjacent samples).
  double tca_window = 5.0;
  /// Matched events must agree in PCA to this [km]; both sides refine the
  /// same smooth objective with the same Brent tolerance, so genuine
  /// agreement is far tighter.
  double pca_tolerance = 0.05;
  /// Band around the threshold, as a fraction of it, where an event is a
  /// "near-miss": oracle events inside the band are not required of the
  /// screeners (refinement jitter legitimately flips them across the
  /// threshold) but are counted for trending.
  double threshold_band = 0.01;
};

/// One confirmed disagreement between a screener and the reference.
struct Divergence {
  /// "grid", "hybrid", "legacy", "grid-devicesim", "service"
  std::string screener;
  enum class Kind : std::uint8_t {
    kMissed,            ///< oracle event below the band, screener silent
    kSpurious,          ///< screener event with no oracle counterpart
    kPcaMismatch,       ///< matched event, PCA disagreement beyond tolerance
    kServiceMismatch,   ///< incremental report != from-scratch reference
    kCounterViolation,  ///< telemetry funnel invariant broken (src/obs)
    kBackendMismatch,   ///< devicesim's grid report != the CPU's
  } kind = Kind::kMissed;
  /// The event at issue (oracle's for kMissed, screener's otherwise), in
  /// dense-index space; for kServiceMismatch the indices are catalog ids.
  Conjunction event;
  std::string detail;  ///< human-readable one-liner for reports
};

const char* divergence_kind_name(Divergence::Kind kind);

/// Outcome of screening one case through every variant.
struct CaseResult {
  std::size_t oracle_events = 0;  ///< oracle events with PCA <= threshold
  std::size_t must_find = 0;      ///< oracle events below the near-miss band
  std::size_t near_misses = 0;    ///< oracle events within the band
  std::vector<Divergence> divergences;

  bool ok() const { return divergences.empty(); }
};

/// Aggregate counters across a fuzz run, printed as JSON for CI trending.
struct RunStats {
  std::size_t cases = 0;
  std::size_t divergent_cases = 0;
  std::size_t divergences = 0;
  std::size_t oracle_events = 0;
  std::size_t must_find = 0;
  std::size_t near_misses = 0;
  std::map<std::string, std::size_t> divergences_by_screener;

  void add(const CaseResult& result);
  std::string to_json() const;
};

/// Configuration of the differential runner.
struct DifferentialOptions {
  DiffTolerances tolerances;
  OracleOptions oracle;
  /// Also run the case's randomized delta through the incremental service
  /// and require exact agreement with the from-scratch reference.
  bool check_service = true;
  /// Validate the src/obs telemetry funnel invariants (counter
  /// conservation, filter monotonicity) around every variant screen.
  /// Silently skipped in builds with SCOD_TELEMETRY=OFF.
  bool check_counters = true;
};

/// Screens `fuzz_case` through every variant in kAllVariants, through grid
/// once more on devicesim, and through the incremental service; diffs each
/// conjunction set against the dense-scan oracle (the service against its
/// own from-scratch reference, devicesim's grid also against the CPU's,
/// which must match exactly), and reports every divergence. A passing case
/// returns ok() == true.
CaseResult run_differential(const FuzzCase& fuzz_case,
                            const DifferentialOptions& options = {});

}  // namespace scod::verify
