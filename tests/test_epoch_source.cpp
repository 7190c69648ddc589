// Tests for the EpochSource data plane: streamed panels must be bit-
// identical to the resident path — serial or pooled, in-memory or shard-
// backed, whole-brain or partitioned — and the cache must respect its
// byte budget.  Also covers the plan_residency budget split.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "common/error.hpp"
#include "fcma/epoch_source.hpp"
#include "fcma/memory_model.hpp"
#include "fcma/pipeline.hpp"
#include "fmri/dataset_view.hpp"
#include "fmri/presets.hpp"
#include "fmri/shard_store.hpp"
#include "fmri/synthetic.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::core {
namespace {

fmri::Dataset small_dataset() {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 40;
  spec.subjects = 3;
  spec.epochs_total = 12;
  return fmri::generate_synthetic(spec);
}

std::size_t panel_bytes(const fmri::Dataset& d) {
  return d.voxels() * static_cast<std::size_t>(d.epochs().front().length) *
         sizeof(float);
}

void expect_panels_equal(EpochSource& a, EpochSource& b) {
  ASSERT_EQ(a.meta().size(), b.meta().size());
  for (std::size_t m = 0; m < a.meta().size(); ++m) {
    const auto la = a.acquire(m, m + 1);
    const auto lb = b.acquire(m, m + 1);
    const linalg::Matrix& pa = la.epoch(m);
    const linalg::Matrix& pb = lb.epoch(m);
    ASSERT_EQ(pa.rows(), pb.rows());
    ASSERT_EQ(pa.cols(), pb.cols());
    EXPECT_EQ(std::memcmp(pa.row(0), pb.row(0),
                          pa.rows() * pa.ld() * sizeof(float)),
              0)
        << "epoch " << m;
  }
}

TEST(StreamedEpochs, PanelsMatchResidentBitForBit) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  ResidentEpochs resident(norm);
  const fmri::InMemoryView view(d);
  // Budget of one subject run + 1 — the floor — forces constant eviction.
  StreamedEpochs streamed(
      view, {(d.epochs_per_subject() + 1) * panel_bytes(d), nullptr});
  expect_panels_equal(resident, streamed);
}

TEST(StreamedEpochs, ShardBackedPanelsMatchResident) {
  const fmri::Dataset d = small_dataset();
  const auto stem = (std::filesystem::temp_directory_path() /
                     ("fcma_src_test_" + std::to_string(::getpid())))
                        .string();
  fmri::write_shard_store(stem, d);
  const auto view = fmri::open_shard_store(stem, "store");
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  ResidentEpochs resident(norm);
  StreamedEpochs streamed(*view, {2 * panel_bytes(d), nullptr});
  expect_panels_equal(resident, streamed);
  for (const auto& shard : view->shards()) {
    std::filesystem::remove(shard.path);
  }
  std::filesystem::remove(stem + ".shards");
  std::filesystem::remove(stem + ".epochs");
}

TEST(StreamedEpochs, CacheStaysWithinBudget) {
  const fmri::Dataset d = small_dataset();
  const fmri::InMemoryView view(d);
  const std::size_t budget = (d.epochs_per_subject() + 1) * panel_bytes(d);
  StreamedEpochs streamed(view, {budget, nullptr});
  for (std::size_t m = 0; m < streamed.meta().size(); ++m) {
    const auto lease = streamed.acquire(m, m + 1);
    EXPECT_LE(streamed.resident_bytes(), budget);
  }
  // After the sweep nothing is pinned, so the cache must still be within
  // budget and strictly smaller than the dataset.
  EXPECT_LE(streamed.resident_bytes(), budget);
  EXPECT_LT(streamed.resident_panels(), streamed.meta().size());
}

TEST(StreamedEpochs, SubsetSelectsAndReordersEpochs) {
  const fmri::Dataset d = small_dataset();
  const fmri::InMemoryView view(d);
  const std::vector<std::size_t> subset{4, 5, 6, 7, 0, 1, 2, 3};
  StreamedEpochs streamed(view, subset, {0, nullptr});
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d, subset);
  ASSERT_EQ(streamed.meta().size(), subset.size());
  for (std::size_t m = 0; m < subset.size(); ++m) {
    EXPECT_EQ(streamed.meta()[m].start, norm.meta[m].start);
    const auto lease = streamed.acquire(m, m + 1);
    const linalg::Matrix& panel = lease.epoch(m);
    EXPECT_EQ(std::memcmp(panel.row(0), norm.per_epoch[m].row(0),
                          panel.rows() * panel.ld() * sizeof(float)),
              0);
  }
}

TEST(StreamedEpochs, PooledPrefetchIsBitIdentical) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  threading::ThreadPool pool(2);
  const std::size_t budget = (d.epochs_per_subject() + 1) * panel_bytes(d);
  StreamedEpochs streamed(view, {budget, &pool});
  ResidentEpochs resident(norm);
  for (std::size_t m = 0; m < streamed.meta().size(); ++m) {
    streamed.prefetch(m + 1, m + 3);
    const auto ls = streamed.acquire(m, m + 1);
    const auto lr = resident.acquire(m, m + 1);
    EXPECT_EQ(std::memcmp(ls.epoch(m).row(0), lr.epoch(m).row(0),
                          ls.epoch(m).rows() * ls.epoch(m).ld() *
                              sizeof(float)),
              0);
  }
}

TEST(StreamedEpochs, RunTaskMatchesResidentExactly) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  const VoxelTask task{0, static_cast<std::uint32_t>(d.voxels())};
  const PipelineConfig config = PipelineConfig::optimized();

  const TaskResult want = run_task(norm, task, config);
  StreamedEpochs streamed(
      view, {(d.epochs_per_subject() + 1) * panel_bytes(d), nullptr});
  const TaskResult got = run_task(streamed, task, config);
  ASSERT_EQ(got.accuracy.size(), want.accuracy.size());
  for (std::size_t v = 0; v < want.accuracy.size(); ++v) {
    EXPECT_EQ(got.accuracy[v], want.accuracy[v]) << "voxel " << v;
  }
}

TEST(StreamedEpochs, PartitionedGroupedRunMatchesWholeBrain) {
  // Grain invariance: per-voxel accuracies do not depend on how the brain
  // is partitioned into tasks or groups — the invariant the budgeted CLI
  // paths rely on for byte-identical reports.
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  const PipelineConfig config = PipelineConfig::optimized();

  ResidentEpochs resident(norm);
  const TaskResult whole = run_task_grouped(
      resident, VoxelTask{0, static_cast<std::uint32_t>(d.voxels())}, config, 16);

  StreamedEpochs streamed(
      view, {(d.epochs_per_subject() + 1) * panel_bytes(d), nullptr});
  std::vector<double> accuracy(d.voxels(), 0.0);
  for (const VoxelTask& task : partition_voxels(d.voxels(), 13)) {
    const TaskResult part = run_task_grouped(streamed, task, config, 5);
    for (std::size_t v = 0; v < part.accuracy.size(); ++v) {
      accuracy[task.first + v] = part.accuracy[v];
    }
  }
  for (std::size_t v = 0; v < d.voxels(); ++v) {
    EXPECT_EQ(accuracy[v], whole.accuracy[v]) << "voxel " << v;
  }
}

TEST(BudgetPlan, IsDeterministicAndWithinBudget) {
  const BudgetPlan plan = plan_residency(/*total_epochs=*/96,
                                         /*epochs_per_subject=*/12,
                                         /*brain_voxels=*/4096,
                                         /*epoch_length=*/64,
                                         /*budget_bytes=*/64u << 20);
  const BudgetPlan again = plan_residency(96, 12, 4096, 64, 64u << 20);
  EXPECT_EQ(plan.panel_cache_bytes, again.panel_cache_bytes);
  EXPECT_EQ(plan.group_voxels, again.group_voxels);
  EXPECT_EQ(plan.voxels_per_task, again.voxels_per_task);

  EXPECT_GT(plan.group_voxels, 0u);
  EXPECT_GE(plan.voxels_per_task, plan.group_voxels);
  // Panel cache floor: one subject run + one prefetched panel.
  const std::size_t panel = 4096 * 64 * sizeof(float);
  EXPECT_GE(plan.panel_cache_bytes, 13 * panel);
  // The planned pieces stay within the planning fraction of the budget.
  const std::size_t corr = plan.group_voxels *
                           corr_bytes_per_voxel(96, 4096);
  EXPECT_LE(plan.panel_cache_bytes + corr, (64u << 20) * 5 / 8);
}

TEST(BudgetPlan, ImpossibleBudgetThrows) {
  EXPECT_THROW((void)plan_residency(96, 12, 4096, 64, 1u << 20), Error);
  EXPECT_THROW((void)plan_residency(96, 12, 4096, 64, 0), Error);
  EXPECT_THROW((void)plan_residency(0, 12, 4096, 64, 1u << 30), Error);
}

}  // namespace
}  // namespace fcma::core
