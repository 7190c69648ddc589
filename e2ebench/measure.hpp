// Measurement and correctness-check code of the end-to-end benchmark.
//
// Everything here is computed apart from the analysis it judges: order
// statistics over repetition timings, analytic flop counts, trace
// coverage, and the output checks every repetition must pass.  A failed
// check throws CheckFailure; the benchmark counts that repetition as a
// failed operation.  test_measure.cpp covers each function.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/driver.hpp"
#include "fcma/offline.hpp"
#include "fcma/scoreboard.hpp"

namespace e2e {

// --- order statistics ------------------------------------------------------

/// Median (mean of the two middle values for an even count).  Throws on an
/// empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's statistics.quantiles(values, n=4), so in-process figures and
/// the steadiness tool agree.  Needs at least two values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

// --- analytic work counts (computed, not measured) -------------------------

/// Flops of stage 1 for `task_voxels` rows against `brain_voxels` columns
/// over `epochs` epochs of `epoch_length` samples: one length-T dot
/// product (2T flops) per output element.
[[nodiscard]] double correlation_flops(std::size_t task_voxels,
                                       std::size_t epochs,
                                       std::size_t brain_voxels,
                                       std::size_t epoch_length);

/// Flops of the per-voxel kernel reduction K = C C^T for `voxels` M x N
/// correlation blocks (M = epochs, N = brain voxels), counting the
/// symmetric half once: M * M * N per voxel.
[[nodiscard]] double syrk_flops(std::size_t voxels, std::size_t epochs,
                                std::size_t brain_voxels);

/// Attributed time as a share of the traced wall time.  Throws when the
/// wall time is not positive or a part is negative.
[[nodiscard]] double coverage(const std::vector<double>& attributed_s,
                              double wall_s);

// --- correctness checks ----------------------------------------------------

/// Thrown by every check below.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Share of `planted` found among the |planted| best-scoring voxels
/// (accuracy descending, lower voxel id first on ties).  Every voxel must
/// be scored.
[[nodiscard]] double planted_recovery(const fcma::core::Scoreboard& board,
                                      const std::vector<std::uint32_t>& planted);

/// Fails unless planted_recovery() reaches `min_recovery`.
void check_planted_recovery(const fcma::core::Scoreboard& board,
                            const std::vector<std::uint32_t>& planted,
                            double min_recovery);

/// Fails unless `accuracy` is exactly k / m for an integer 0 <= k <= m.
void check_k_over_m(double accuracy, std::size_t m, const std::string& what);

/// Fails unless every voxel is scored and every score is k / m.
void check_board(const fcma::core::Scoreboard& board, std::size_t m);

/// Fails unless each reference voxel's score in `board` equals the
/// reference bit for bit.
void check_matches_reference(
    const fcma::core::Scoreboard& board,
    const std::map<std::uint32_t, double>& reference);

/// Fails unless the FDR-selected set is non-empty, ascending and scores
/// above every unselected voxel (FDR thresholds a p-value monotone in
/// accuracy), and the rendered report states the scored and selected
/// voxel counts.
void check_fdr_set(const fcma::core::Scoreboard& board,
                   const std::vector<std::uint32_t>& selected,
                   const std::string& report);

/// Fails unless the farm ran without a death, a retry or a requeue and
/// dispatched each of its `tasks` tasks exactly once.
void check_clean_farm(const fcma::cluster::DriverStats& stats,
                      std::size_t tasks);

/// Everything one offline fold is checked against.
struct FoldExpectation {
  std::size_t train_epochs = 0;  ///< inner-CV sample count (k/M of scores)
  std::size_t test_epochs = 0;   ///< held-out epochs (k/M of test accuracy)
  std::size_t top_k = 0;
  double min_test_accuracy = 0.0;  ///< chance plus a fixed margin
  double min_planted_share = 0.0;  ///< of the selected voxels
  /// Serial resident scores of this fold's voxels, computed apart: must
  /// cover every selected voxel and may hold unselected sample voxels.
  std::map<std::uint32_t, double> serial_scores;
};

/// Checks one fold: selection size and order, held-out accuracy k/M and
/// above chance, planted share of the selection, the selected voxels' mean
/// CV accuracy equal bit for bit to the serial re-scoring, and no sampled
/// unselected voxel scoring above the weakest selected one.
void check_fold(const fcma::core::FoldResult& fold,
                const FoldExpectation& expect,
                const std::vector<std::uint32_t>& planted);

// --- host and process ------------------------------------------------------

/// One-line host fingerprint: nproc, CPU model, active SIMD ISA, compiler,
/// build type.
[[nodiscard]] std::string host_fingerprint();

/// VmHWM of the calling process in MiB, from /proc/self/status.
[[nodiscard]] double peak_rss_mib();

}  // namespace e2e
