#pragma once

#include <span>

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/screener.hpp"
// Concrete screeners, re-exported for callers that construct one directly
// (benches, tests); new code should go through make_screener.
#include "core/grid_screener.hpp"
#include "core/hybrid_screener.hpp"
#include "core/legacy_screener.hpp"

namespace scod {

/// One-call convenience API: screens `satellites` over the configured span
/// with the chosen variant. Equivalent to
/// make_screener(variant)->screen(satellites, config). Pair a Device with
/// config.device to run the grid/hybrid variants on the devicesim backend
/// (the all-on-all legacy baseline is CPU-only by definition).
ScreeningReport screen(std::span<const Satellite> satellites,
                       const ScreeningConfig& config, Variant variant);

}  // namespace scod
