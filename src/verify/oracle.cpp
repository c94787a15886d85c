#include "verify/oracle.hpp"

#include <algorithm>
#include <mutex>

#include "filters/dense_scan.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"

namespace scod::verify {

std::vector<Conjunction> oracle_conjunctions(std::span<const Satellite> satellites,
                                             const ScreeningConfig& config,
                                             const OracleOptions& options) {
  const std::size_t n = satellites.size();
  std::vector<Conjunction> out;
  if (n < 2) return out;

  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(
      std::vector<Satellite>(satellites.begin(), satellites.end()), solver);

  DenseScanOptions scan;
  scan.step = options.step;
  const double record_below = config.threshold_km * options.slack;

  // Flatten the strict upper triangle so the pair loop parallelizes as one
  // dense index space: pair p -> (i, j), i < j.
  const std::size_t pairs = n * (n - 1) / 2;
  ThreadPool& pool = options.pool != nullptr ? *options.pool : global_thread_pool();

  std::mutex sink_mutex;
  pool.parallel_for_ranges(pairs, [&](std::size_t begin, std::size_t end) {
    std::vector<Conjunction> local;
    for (std::size_t p = begin; p < end; ++p) {
      // Invert p = i*n - i*(i+1)/2 + (j - i - 1) by walking rows; rows are
      // short (< n) and the propagation dominates, so the scan is cheap.
      std::size_t i = 0, row_start = 0;
      while (row_start + (n - 1 - i) <= p) {
        row_start += n - 1 - i;
        ++i;
      }
      const std::size_t j = i + 1 + (p - row_start);

      const auto encounters =
          scan_encounters(propagator, static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j), config.t_begin,
                          config.t_end, scan);
      for (const Encounter& e : encounters) {
        if (e.pca <= record_below) {
          local.push_back({static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(j), e.tca, e.pca});
        }
      }
    }
    if (!local.empty()) {
      const std::lock_guard<std::mutex> lock(sink_mutex);
      out.insert(out.end(), local.begin(), local.end());
    }
  });

  // Same canonicalization the screeners apply: adjacent-bracket duplicates
  // of one physical minimum are merged, then sorted by (pair, tca).
  return merge_conjunctions(std::move(out), kMergeToleranceSeconds);
}

}  // namespace scod::verify
