#include "core/screener.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/context.hpp"
#include "core/grid_screener.hpp"
#include "core/hybrid_screener.hpp"
#include "core/legacy_screener.hpp"
#include "core/sieve_screener.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "util/stopwatch.hpp"

namespace scod {

std::string variant_name(Variant variant) {
  switch (variant) {
    case Variant::kGrid: return "grid";
    case Variant::kHybrid: return "hybrid";
    case Variant::kLegacy: return "legacy";
    case Variant::kSieve: return "sieve";
  }
  return "unknown";
}

std::optional<Variant> parse_variant(std::string_view name) {
  if (name == "grid") return Variant::kGrid;
  if (name == "hybrid") return Variant::kHybrid;
  if (name == "legacy") return Variant::kLegacy;
  if (name == "sieve") return Variant::kSieve;
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
  return with_context(config, [&](ScreeningContext& context,
                                  const ScreeningConfig& bound) {
    return run(propagator, bound, context);
  });
}

ScreeningReport ScreenerBase::with_context(const ScreeningConfig& caller_config,
                                           const ContextBody& body) const {
  if (!std::isfinite(caller_config.threshold_km) || !(caller_config.threshold_km > 0.0)) {
    throw std::invalid_argument("screen: threshold must be finite and > 0");
  }
  if (!std::isfinite(caller_config.t_begin) || !std::isfinite(caller_config.t_end)) {
    throw std::invalid_argument("screen: time span must be finite");
  }
  if (!(caller_config.t_begin < caller_config.t_end)) {
    throw std::invalid_argument("screen: empty time span");
  }
  if (!std::isfinite(caller_config.seconds_per_sample)) {
    throw std::invalid_argument("screen: seconds_per_sample must be finite");
  }
  const Variant v = variant();
  if (caller_config.device != nullptr &&
      (v == Variant::kLegacy || v == Variant::kSieve)) {
    throw std::invalid_argument("screen: the " + variant_name(v) +
                                " variant has no device backend");
  }
  detail::ContextLease lease(context_);
  ScreeningContext::Use use(*lease);
  return body(*lease, lease->apply(caller_config));
}

std::unique_ptr<Screener> make_screener(Variant variant,
                                        ScreeningContext* context,
                                        GridPipelineOptions pipeline) {
  switch (variant) {
    case Variant::kGrid:
      return std::make_unique<GridScreener>(std::move(pipeline), context);
    case Variant::kHybrid:
      return std::make_unique<HybridScreener>(std::move(pipeline), context);
    case Variant::kLegacy:
      return std::make_unique<LegacyScreener>(context);
    case Variant::kSieve:
      return std::make_unique<SieveScreener>(context);
  }
  throw std::invalid_argument("make_screener: unknown variant");
}

}  // namespace scod
