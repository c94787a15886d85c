#pragma once

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/screener.hpp"
#include "orbit/elements.hpp"
#include "propagation/propagator.hpp"

namespace scod {

/// The (smart) sieve baseline from the paper's related work — Healy 1995
/// [16] and Rodriguez, Fadrique & Klinkrad 2002 [17]: still an all-on-all
/// pairwise method, but instead of geometric orbit filters it walks each
/// pair through time with *adaptive skipping*: at distance d the pair
/// cannot come within the threshold sooner than (d - threshold) / v_max,
/// so that much time is sieved out at one distance evaluation.
///
/// Complexity stays O(n^2) in pairs (each pair is touched at least once
/// per skip chain), which is exactly why the paper moves to spatial data
/// structures; this implementation exists as the third classical baseline
/// for the comparison benches. Unlike the legacy filter chain it needs no
/// plane geometry, so it is robust for coplanar pairs too; unlike the
/// paper's baseline it parallelizes trivially over pairs.
class SieveScreener final : public ScreenerBase {
 public:
  using Options = SieveScreenerOptions;

  SieveScreener();
  /// With a context, the vmax table is borrowed from its arena across
  /// calls; the context must outlive the screener.
  explicit SieveScreener(Options options, ScreeningContext* context = nullptr);

  Variant variant() const override { return Variant::kSieve; }

 private:
  /// CPU-only by definition.
  ScreeningReport run(const Propagator& propagator, const ScreeningConfig& config,
                      ScreeningContext& context) const override;

  Options options_;
};

}  // namespace scod
