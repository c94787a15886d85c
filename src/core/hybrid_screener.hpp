#pragma once

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/screener.hpp"
#include "orbit/elements.hpp"
#include "propagation/propagator.hpp"

namespace scod {

/// The hybrid conjunction-detection variant (Section III): the same grid
/// front-end, but sampled less frequently (larger cells), with the
/// candidate pairs passed through the classical orbital filter chain —
/// apogee/perigee overlap, coplanarity classification, the node test and
/// the node time-window filter — before the Brent
/// refinement. "The additional checks reduce the number of pairs we have
/// to examine for their PCAs and TCAs, so we sample less frequently ...
/// effectively trading time for space."
class HybridScreener final : public ScreenerBase {
 public:
  /// Default sampling period [s]; four times the grid variant's, i.e.
  /// four-times-fewer sample steps with correspondingly larger cells.
  static constexpr double kDefaultSecondsPerSample = 16.0;

  Variant variant() const override { return Variant::kHybrid; }

 private:
  ScreeningReport run(const Propagator& propagator,
                      const ScreeningConfig& config) const override;
};

}  // namespace scod
