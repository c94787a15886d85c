#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/config.hpp"
#include "core/grid_pipeline.hpp"
#include "core/report.hpp"
#include "orbit/elements.hpp"
#include "propagation/propagator.hpp"

namespace scod {

class ScreeningContext;

/// The conjunction-detection variants of the paper's evaluation.
enum class Variant {
  kGrid,    ///< purely grid-based (Section III, first variant)
  kHybrid,  ///< grid + classical orbital filters (second variant)
  kLegacy,  ///< single-threaded all-on-all filter chain (baseline)
  kSieve,   ///< all-on-all smart sieve (related-work baseline [16], [17])
};

std::string variant_name(Variant variant);

/// Inverse of variant_name; nullopt for an unknown name. The one parser
/// every tool shares (CLI, fuzz, benches) — no per-tool string switches.
std::optional<Variant> parse_variant(std::string_view name);

/// Common interface of the four screening variants. A screener is an
/// immutable strategy object: screen() is const and safe to call
/// repeatedly; all per-run state lives on the stack or in the attached
/// ScreeningContext. Obtain instances through make_screener.
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
  /// is not finite, and when config.device is set for a CPU-only variant
  /// (legacy, sieve).
  virtual ScreeningReport screen(const Propagator& propagator,
                                 const ScreeningConfig& config) const = 0;
};

/// The skeleton every variant derives from: both screen() overloads are
/// implemented here once (and final); a variant only implements run(),
/// which receives a validated config with the context's pool bound and the
/// bound-or-ephemeral context already held.
class ScreenerBase : public Screener {
 public:
  ScreeningReport screen(std::span<const Satellite> satellites,
                         const ScreeningConfig& config) const final;
  ScreeningReport screen(const Propagator& propagator,
                         const ScreeningConfig& config) const final;

 protected:
  /// With a context, scratch is borrowed from its arena across calls; the
  /// context must outlive the screener.
  explicit ScreenerBase(ScreeningContext* context) : context_(context) {}

  using ContextBody =
      std::function<ScreeningReport(ScreeningContext&, const ScreeningConfig&)>;

  /// The common preamble of every screen: validates `config`, leases the
  /// bound-or-ephemeral context, holds ScreeningContext::Use for the call
  /// and hands `body` the context and the config with its pool bound.
  ScreeningReport with_context(const ScreeningConfig& config,
                               const ContextBody& body) const;

 private:
  virtual ScreeningReport run(const Propagator& propagator,
                              const ScreeningConfig& config,
                              ScreeningContext& context) const = 0;

  ScreeningContext* context_ = nullptr;
};

/// Factory behind every variant dispatch site. With a context the returned
/// screener borrows its scratch from the context's arena (warm repeat
/// screens, bit-identical reports); without one each screen() call
/// allocates and frees as before. The context must outlive the screener.
/// `pipeline` configures the grid front-end of grid and hybrid; legacy and
/// sieve ignore it.
std::unique_ptr<Screener> make_screener(Variant variant,
                                        ScreeningContext* context = nullptr,
                                        GridPipelineOptions pipeline = {});

}  // namespace scod
