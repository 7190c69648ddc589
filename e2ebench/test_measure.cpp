// Tests of the benchmark's measurement code: order statistics, analytic
// flop counts, coverage, and that every correctness check rejects a
// deliberately wrong result.
#include <gtest/gtest.h>

#include "measure.hpp"

namespace {

using e2e::CheckFailure;
using fcma::core::Scoreboard;
using fcma::core::TaskResult;
using fcma::core::VoxelTask;

Scoreboard board_of(const std::vector<double>& acc) {
  Scoreboard b(acc.size());
  TaskResult r;
  r.task = VoxelTask{0, static_cast<std::uint32_t>(acc.size())};
  r.accuracy = acc;
  b.add(r);
  return b;
}

TEST(Stats, MedianOddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(e2e::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(e2e::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(e2e::median({7.0}), 7.0);
  EXPECT_THROW((void)e2e::median({}), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const e2e::Quartiles q =
      e2e::quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (extrapolated)
  const e2e::Quartiles two = e2e::quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const e2e::Quartiles five = e2e::quartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q2, 4.0);
  EXPECT_DOUBLE_EQ(five.q3, 12.0);
  EXPECT_THROW((void)e2e::quartiles({1.0}), std::invalid_argument);
}

TEST(Stats, AnalyticFlopCounts) {
  // 2 task voxels x 3 epochs x 5 brain voxels x 4 samples, 2 flops each.
  EXPECT_DOUBLE_EQ(e2e::correlation_flops(2, 3, 5, 4), 240.0);
  // 2 voxels x (3 x 3 kernel over 5 columns).
  EXPECT_DOUBLE_EQ(e2e::syrk_flops(2, 3, 5), 90.0);
  EXPECT_DOUBLE_EQ(e2e::syrk_flops(0, 3, 5), 0.0);
}

TEST(Stats, Coverage) {
  EXPECT_DOUBLE_EQ(e2e::coverage({1.0, 2.0, 0.5}, 4.0), 0.875);
  EXPECT_DOUBLE_EQ(e2e::coverage({}, 1.0), 0.0);
  EXPECT_THROW((void)e2e::coverage({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW((void)e2e::coverage({-1.0}, 1.0), std::invalid_argument);
}

TEST(Checks, KOverM) {
  EXPECT_NO_THROW(e2e::check_k_over_m(7.0 / 12.0, 12, "a"));
  EXPECT_NO_THROW(e2e::check_k_over_m(0.0, 12, "a"));
  EXPECT_NO_THROW(e2e::check_k_over_m(1.0, 12, "a"));
  EXPECT_THROW(e2e::check_k_over_m(0.6, 12, "a"), CheckFailure);
  EXPECT_THROW(e2e::check_k_over_m(7.0 / 12.0 + 1e-15, 12, "a"), CheckFailure);
  EXPECT_THROW(e2e::check_k_over_m(1.5, 2, "a"), CheckFailure);
  EXPECT_THROW(e2e::check_k_over_m(0.5, 0, "a"), CheckFailure);
}

TEST(Checks, BoardRejectsIncompleteOrNonKOverM) {
  EXPECT_NO_THROW(e2e::check_board(board_of({0.5, 0.25, 1.0}), 4));
  EXPECT_THROW(e2e::check_board(board_of({0.5, 0.3, 1.0}), 4), CheckFailure);
  Scoreboard partial(4);
  TaskResult r;
  r.task = VoxelTask{0, 2};
  r.accuracy = {0.5, 0.5};
  partial.add(r);
  EXPECT_THROW(e2e::check_board(partial, 4), CheckFailure);
}

TEST(Checks, PlantedRecovery) {
  // Voxels 1 and 3 planted; the top two are 3 and 0.
  const Scoreboard b = board_of({0.75, 0.5, 0.25, 1.0});
  EXPECT_DOUBLE_EQ(e2e::planted_recovery(b, {1, 3}), 0.5);
  EXPECT_DOUBLE_EQ(e2e::planted_recovery(b, {0, 3}), 1.0);
  EXPECT_NO_THROW(e2e::check_planted_recovery(b, {0, 3}, 0.75));
  EXPECT_THROW(e2e::check_planted_recovery(b, {1, 3}, 0.75), CheckFailure);
  // Ties rank the lower voxel id first.
  const Scoreboard tied = board_of({0.5, 0.5, 0.5});
  EXPECT_DOUBLE_EQ(e2e::planted_recovery(tied, {0}), 1.0);
  EXPECT_DOUBLE_EQ(e2e::planted_recovery(tied, {2}), 0.0);
}

TEST(Checks, ReferenceIsBitForBit) {
  const Scoreboard b = board_of({0.75, 0.5, 0.25});
  EXPECT_NO_THROW(e2e::check_matches_reference(b, {{0, 0.75}, {2, 0.25}}));
  EXPECT_THROW(e2e::check_matches_reference(b, {{1, 0.5 + 1e-16 * 2}}),
               CheckFailure);
  EXPECT_THROW(e2e::check_matches_reference(b, {{5, 0.5}}), CheckFailure);
  EXPECT_THROW(e2e::check_matches_reference(b, {}), CheckFailure);
}

TEST(Checks, FdrSet) {
  const Scoreboard b = board_of({0.75, 0.5, 0.25, 1.0});
  const std::string report = "voxels scored: 4\nvoxels selected: 2\n";
  EXPECT_NO_THROW(e2e::check_fdr_set(b, {0, 3}, report));
  // Empty set.
  EXPECT_THROW(e2e::check_fdr_set(b, {}, "voxels scored: 4\n"
                                          "voxels selected: 0\n"),
               CheckFailure);
  // Voxel 0 (0.75) outscores the selected voxel 1 (0.5) but is left out.
  EXPECT_THROW(e2e::check_fdr_set(b, {1, 3}, report), CheckFailure);
  // Not ascending, or a voxel out of range.
  EXPECT_THROW(e2e::check_fdr_set(b, {3, 0}, report), CheckFailure);
  EXPECT_THROW(e2e::check_fdr_set(b, {0, 3, 9}, report), CheckFailure);
  // The report states other counts, or none.
  EXPECT_THROW(e2e::check_fdr_set(b, {0, 3}, "voxels scored: 4\n"
                                              "voxels selected: 3\n"),
               CheckFailure);
  EXPECT_THROW(e2e::check_fdr_set(b, {0, 3}, "top voxels\n"), CheckFailure);
}

TEST(Checks, CleanFarm) {
  fcma::cluster::DriverStats s;
  s.tasks_dispatched = 4;
  EXPECT_NO_THROW(e2e::check_clean_farm(s, 4));
  s.workers_died = 1;
  EXPECT_THROW(e2e::check_clean_farm(s, 4), CheckFailure);
  s = {};
  s.tasks_dispatched = 4;
  s.retries = 2;
  EXPECT_THROW(e2e::check_clean_farm(s, 4), CheckFailure);
  s = {};
  s.tasks_dispatched = 4;
  s.tasks_requeued = 1;
  EXPECT_THROW(e2e::check_clean_farm(s, 4), CheckFailure);
  // A task dispatched twice, or one never dispatched.
  s = {};
  s.tasks_dispatched = 5;
  EXPECT_THROW(e2e::check_clean_farm(s, 4), CheckFailure);
  s.tasks_dispatched = 3;
  EXPECT_THROW(e2e::check_clean_farm(s, 4), CheckFailure);
}

class FoldCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    fold.left_out_subject = 0;
    fold.selected = {1, 4};
    fold.test_accuracy = 10.0 / 12.0;
    fold.mean_selected_cv_accuracy = (0.75 + 0.5) / 2.0;
    expect.train_epochs = 4;
    expect.test_epochs = 12;
    expect.top_k = 2;
    expect.min_test_accuracy = 0.75;
    expect.min_planted_share = 0.5;
    expect.serial_scores = {{1, 0.75}, {4, 0.5}, {7, 0.25}};
  }
  fcma::core::FoldResult fold;
  e2e::FoldExpectation expect;
  std::vector<std::uint32_t> planted = {4, 9};
};

TEST_F(FoldCheck, AcceptsAConsistentFold) {
  EXPECT_NO_THROW(e2e::check_fold(fold, expect, planted));
}

TEST_F(FoldCheck, RejectsHeldOutAccuracyAtChance) {
  fold.test_accuracy = 6.0 / 12.0;
  EXPECT_THROW(e2e::check_fold(fold, expect, planted), CheckFailure);
}

TEST_F(FoldCheck, RejectsHeldOutAccuracyNotKOverM) {
  fold.test_accuracy = 0.9;
  EXPECT_THROW(e2e::check_fold(fold, expect, planted), CheckFailure);
}

TEST_F(FoldCheck, RejectsMeanThatDiffersFromSerialRescoring) {
  fold.mean_selected_cv_accuracy = 0.625 + 1e-12;
  EXPECT_THROW(e2e::check_fold(fold, expect, planted), CheckFailure);
}

TEST_F(FoldCheck, RejectsSelectionBeatenByAnUnselectedVoxel) {
  expect.serial_scores[7] = 1.0;
  EXPECT_THROW(e2e::check_fold(fold, expect, planted), CheckFailure);
}

TEST_F(FoldCheck, RejectsSelectionWithoutPlantedVoxels) {
  planted = {9};
  EXPECT_THROW(e2e::check_fold(fold, expect, planted), CheckFailure);
}

TEST_F(FoldCheck, RejectsWrongSizeOrUnsortedSelection) {
  fold.selected = {4, 1};
  EXPECT_THROW(e2e::check_fold(fold, expect, planted), CheckFailure);
  fold.selected = {1};
  EXPECT_THROW(e2e::check_fold(fold, expect, planted), CheckFailure);
}

TEST(Host, FingerprintAndPeakRss) {
  const std::string fp = e2e::host_fingerprint();
  EXPECT_NE(fp.find("nproc="), std::string::npos);
  EXPECT_NE(fp.find("isa="), std::string::npos);
  EXPECT_NE(fp.find("build="), std::string::npos);
  EXPECT_GT(e2e::peak_rss_mib(), 0.0);
}

}  // namespace
