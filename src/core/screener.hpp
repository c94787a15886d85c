#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/config.hpp"
#include "core/report.hpp"
#include "orbit/elements.hpp"
#include "propagation/propagator.hpp"

namespace scod {

/// The conjunction-detection variants of the paper's evaluation.
enum class Variant {
  kGrid,    ///< purely grid-based (Section III, first variant)
  kHybrid,  ///< grid + classical orbital filters (second variant)
  kLegacy,  ///< single-threaded all-on-all filter chain (baseline)
};

std::string variant_name(Variant variant);

/// Inverse of variant_name; nullopt for an unknown name. The one parser
/// every tool shares (CLI, fuzz, benches) — no per-tool string switches.
std::optional<Variant> parse_variant(std::string_view name);

/// Every variant, in declaration order: the one list the differential
/// runner, the tests and the tools iterate, so each of them covers every
/// variant parse_variant accepts.
inline constexpr std::array kAllVariants = {Variant::kGrid, Variant::kHybrid,
                                            Variant::kLegacy};

/// Common interface of the three screening variants. A screener is an
/// immutable strategy object: screen() is const and safe to call
/// repeatedly, and every screen allocates its own scratch (step 1 of
/// Section III), so no state carries over from one screen to the next.
/// Obtain instances through make_screener.
///
/// Concurrency: screens may run at once from several threads only on
/// distinct pools (ScreeningConfig::pool). Two screens that share a pool
/// with workers — the process-global one included — would share its
/// workers, which the grid pipeline's one-grid-per-worker rounds cannot
/// allow; the second submission throws std::logic_error (see
/// ThreadPool::run_on_all). A screen on a one-thread pool runs inline.
class Screener {
 public:
  virtual ~Screener() = default;

  virtual Variant variant() const = 0;

  /// Screens a satellite population: builds the Contour-solver two-body
  /// propagator (timed as allocation) and screens it.
  virtual ScreeningReport screen(std::span<const Satellite> satellites,
                                 const ScreeningConfig& config) const = 0;

  /// Screens with a caller-supplied propagator (e.g. the J2 secular
  /// propagator); the propagator must be thread-safe. Throws
  /// std::invalid_argument for a threshold that is not finite and > 0, a
  /// span that is empty, inverted or not finite, a seconds_per_sample that
  /// is not finite, and when config.device is set for the CPU-only legacy
  /// variant.
  virtual ScreeningReport screen(const Propagator& propagator,
                                 const ScreeningConfig& config) const = 0;
};

/// The skeleton every variant derives from: both screen() overloads are
/// implemented here once (and final); a variant only implements run(),
/// which receives a validated config.
class ScreenerBase : public Screener {
 public:
  ScreeningReport screen(std::span<const Satellite> satellites,
                         const ScreeningConfig& config) const final;
  ScreeningReport screen(const Propagator& propagator,
                         const ScreeningConfig& config) const final;

 private:
  virtual ScreeningReport run(const Propagator& propagator,
                              const ScreeningConfig& config) const = 0;
};

/// Factory behind every variant dispatch site.
std::unique_ptr<Screener> make_screener(Variant variant);

}  // namespace scod
