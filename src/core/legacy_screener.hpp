#pragma once

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/screener.hpp"
#include "orbit/elements.hpp"
#include "propagation/propagator.hpp"

namespace scod {

/// The traditional deterministic all-on-all baseline the paper measures
/// against ("legacy", [45]): every pair of satellites is pushed through a
/// chain of orbital filters — apogee/perigee, coplanarity, orbit-path /
/// node-miss, node time windows — and the survivors get a Brent TCA/PCA
/// search. Deliberately single-threaded, like the paper's numba-JIT Python
/// baseline, so the quadratic pair loop is undiluted.
class LegacyScreener final : public ScreenerBase {
 public:
  explicit LegacyScreener(ScreeningContext* context = nullptr)
      : ScreenerBase(context) {}

  Variant variant() const override { return Variant::kLegacy; }

 private:
  /// CPU-only (and single-threaded) by definition; the context is only the
  /// telemetry handle, the chain needs no sized scratch.
  ScreeningReport run(const Propagator& propagator, const ScreeningConfig& config,
                      ScreeningContext& context) const override;
};

}  // namespace scod
