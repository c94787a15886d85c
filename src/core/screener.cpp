#include "core/screener.hpp"

#include <cmath>
#include <stdexcept>

#include "core/grid_screener.hpp"
#include "core/hybrid_screener.hpp"
#include "core/legacy_screener.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "util/stopwatch.hpp"

namespace scod {

std::string variant_name(Variant variant) {
  switch (variant) {
    case Variant::kGrid: return "grid";
    case Variant::kHybrid: return "hybrid";
    case Variant::kLegacy: return "legacy";
  }
  return "unknown";
}

std::optional<Variant> parse_variant(std::string_view name) {
  if (name == "grid") return Variant::kGrid;
  if (name == "hybrid") return Variant::kHybrid;
  if (name == "legacy") return Variant::kLegacy;
  return std::nullopt;
}

ScreeningReport ScreenerBase::screen(std::span<const Satellite> satellites,
                                     const ScreeningConfig& config) const {
  Stopwatch alloc_watch;
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(satellites, solver);
  const double setup = alloc_watch.seconds();

  ScreeningReport report = screen(propagator, config);
  report.timings.allocation += setup;
  return report;
}

ScreeningReport ScreenerBase::screen(const Propagator& propagator,
                                     const ScreeningConfig& config) const {
  if (!std::isfinite(config.threshold_km) || !(config.threshold_km > 0.0)) {
    throw std::invalid_argument("screen: threshold must be finite and > 0");
  }
  if (!std::isfinite(config.t_begin) || !std::isfinite(config.t_end)) {
    throw std::invalid_argument("screen: time span must be finite");
  }
  if (!(config.t_begin < config.t_end)) {
    throw std::invalid_argument("screen: empty time span");
  }
  if (!std::isfinite(config.seconds_per_sample)) {
    throw std::invalid_argument("screen: seconds_per_sample must be finite");
  }
  return run(propagator, config);
}

std::unique_ptr<Screener> make_screener(Variant variant) {
  switch (variant) {
    case Variant::kGrid:
      return std::make_unique<GridScreener>();
    case Variant::kHybrid:
      return std::make_unique<HybridScreener>();
    case Variant::kLegacy:
      return std::make_unique<LegacyScreener>();
  }
  throw std::invalid_argument("make_screener: unknown variant");
}

}  // namespace scod
