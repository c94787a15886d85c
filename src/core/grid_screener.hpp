#pragma once

#include "core/config.hpp"
#include "core/grid_pipeline.hpp"
#include "core/report.hpp"
#include "core/screener.hpp"
#include "orbit/elements.hpp"
#include "propagation/propagator.hpp"

namespace scod {

/// The purely grid-based conjunction-detection variant (Section III):
/// small sampling steps, small cells, every grid candidate goes straight
/// to the Brent TCA/PCA refinement — no orbital filters. Lower memory
/// footprint than the hybrid variant at the cost of more refinement work.
class GridScreener final : public ScreenerBase {
 public:
  /// Default sampling period of the grid variant [s]; Eq. (1) then gives
  /// cells of threshold + 7.8 * s_ps km. Overridden by
  /// ScreeningConfig::seconds_per_sample when that is positive.
  static constexpr double kDefaultSecondsPerSample = 4.0;

  explicit GridScreener(GridPipelineOptions options = {});

  Variant variant() const override { return Variant::kGrid; }

 private:
  ScreeningReport run(const Propagator& propagator,
                      const ScreeningConfig& config) const override;

  GridPipelineOptions options_;
};

}  // namespace scod
