#pragma once

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/screener.hpp"
#include "orbit/elements.hpp"
#include "propagation/propagator.hpp"

namespace scod {

/// The traditional deterministic all-on-all baseline the paper measures
/// against ("legacy", [45]): every pair of satellites is pushed through a
/// chain of orbital filters — apogee/perigee, coplanarity, node test,
/// node time windows — and the survivors get a Brent TCA/PCA
/// search. Deliberately single-threaded, like the paper's numba-JIT Python
/// baseline, so the quadratic pair loop is undiluted.
class LegacyScreener final : public ScreenerBase {
 public:
  Variant variant() const override { return Variant::kLegacy; }

 private:
  /// CPU-only (and single-threaded) by definition: throws
  /// std::invalid_argument when config.device is set.
  ScreeningReport run(const Propagator& propagator,
                      const ScreeningConfig& config) const override;
};

}  // namespace scod
