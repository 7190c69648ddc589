// Device-memory feasibility model (paper §3.3.3, §4.4, §5.4.1).
//
// The Xeon Phi 5110P leaves ~6GB to applications.  The baseline pipeline
// must keep every assigned voxel's full correlation data (M x N floats)
// resident through SVM cross-validation, which caps a task at 120 voxels
// (face-scene) or 60 (attention) — starving the coprocessor's 240 hardware
// threads during stage 3.  The optimized pipeline reduces each voxel's
// correlation block to an M x M kernel matrix portion by portion, so >= 240
// voxels' problems fit and every thread has work.
//
// These helpers quantify both regimes; the cluster simulator and the Fig 9
// bench use them to reproduce the thread-starvation effect.
#pragma once

#include <cstddef>

namespace fcma::core {

/// Memory available to applications on the modeled coprocessor (~6GB).
inline constexpr std::size_t kPhiAvailableBytes = 6ull << 30;

/// Bytes of correlation data one voxel contributes (M epochs x N voxels).
[[nodiscard]] std::size_t corr_bytes_per_voxel(std::size_t epochs,
                                               std::size_t brain_voxels);

/// Bytes of one voxel's precomputed kernel matrix (M x M).
[[nodiscard]] std::size_t kernel_bytes_per_voxel(std::size_t epochs);

/// Largest task the *baseline* can accept: all correlation data resident.
[[nodiscard]] std::size_t baseline_max_voxels(std::size_t epochs,
                                              std::size_t brain_voxels,
                                              std::size_t available_bytes);

/// Largest task the *optimized* pipeline can accept: `group` voxels'
/// correlation blocks in flight plus one kernel matrix per assigned voxel.
[[nodiscard]] std::size_t optimized_max_voxels(std::size_t epochs,
                                               std::size_t brain_voxels,
                                               std::size_t available_bytes,
                                               std::size_t group = 8);

/// Residency plan for a budget-bounded streamed run (`--memory-budget`).
///
/// Splits the budget deterministically between the three big consumers of
/// a streamed grouped run:
///   * panel cache — StreamedEpochs' normalized-epoch panels (at least one
///     full subject run plus one prefetched panel, the floor the merged
///     stage 1/2 sweep needs);
///   * correlation — the group's in-flight count x M x N blocks;
///   * kernels — a share sized as one M x M kernel matrix per task voxel,
///     which also sets the task grain.  The grouped pipeline now holds only
///     one kernel per busy worker, so this share is slack; the split is
///     kept so existing budgets plan the same sizes.
/// Only ~5/8 of the budget is planned; the rest is headroom for code,
/// transient shard mappings, SVM scratch, and allocator slack so the
/// *process* peak RSS stays under the user's number, not just the plan.
struct BudgetPlan {
  std::size_t budget_bytes = 0;       ///< the user's total budget
  std::size_t panel_cache_bytes = 0;  ///< StreamedEpochs cache budget
  std::size_t group_voxels = 0;       ///< grouped-pipeline group size
  std::size_t voxels_per_task = 0;    ///< task grain (caps kernel buildup)
};

/// Plans shard/task sizes for `budget_bytes`; throws fcma::Error when the
/// budget cannot hold even the minimal working set (one subject's panels,
/// a one-voxel correlation block, one kernel matrix).  Pure function of
/// its arguments, so resident and streamed runs of the same shape always
/// pick the same sizes.
[[nodiscard]] BudgetPlan plan_residency(std::size_t total_epochs,
                                        std::size_t epochs_per_subject,
                                        std::size_t brain_voxels,
                                        std::size_t epoch_length,
                                        std::size_t budget_bytes);

}  // namespace fcma::core
