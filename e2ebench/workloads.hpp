// The benchmark's three workloads, driven through the same public entry
// points `fcma analyze`, `fcma offline` and `fcma cluster` call, with the
// CLI defaults.
//
// A repetition is set-up (everything before the first voxel task can run)
// followed by the analysis (until the workload's result is complete).  A
// traced repetition additionally wraps the two public seams,
// fmri::DatasetView and core::EpochSource, in the timing decorators below
// and times the public calls from outside; nothing inside the program is
// added to.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/driver.hpp"
#include "fcma/epoch_source.hpp"
#include "fcma/offline.hpp"
#include "fmri/dataset_view.hpp"
#include "measure.hpp"
#include "specs.hpp"
#include "threading/thread_pool.hpp"

namespace e2e {

/// Bench-side measurements of one traced repetition.
struct Probe {
  std::atomic<std::uint64_t> panel_reads{0};
  std::atomic<std::uint64_t> panel_read_ns{0};
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> panels_leased{0};
  std::atomic<std::uint64_t> acquire_ns{0};
  double open_s = 0.0;
  double normalize_s = 0.0;
  double select_s = 0.0;  ///< FDR selection
  double report_s = 0.0;  ///< report rendering
};

/// Times every epoch_panel() of the wrapped view.
class TimedDatasetView final : public fcma::fmri::DatasetView {
 public:
  TimedDatasetView(std::unique_ptr<fcma::fmri::DatasetView> inner,
                   Probe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::size_t voxels() const override {
    return inner_->voxels();
  }
  [[nodiscard]] std::size_t timepoints() const override {
    return inner_->timepoints();
  }
  [[nodiscard]] std::int32_t subjects() const override {
    return inner_->subjects();
  }
  [[nodiscard]] const std::vector<fcma::fmri::Epoch>& epochs()
      const override {
    return inner_->epochs();
  }
  [[nodiscard]] Panel epoch_panel(std::size_t idx) const override;

 private:
  std::unique_ptr<fcma::fmri::DatasetView> inner_;
  Probe* probe_;
};

/// Counts and times every acquire() of the wrapped source (the time is
/// what callers spend blocked until their panels are resident).
class TimedEpochSource final : public fcma::core::EpochSource {
 public:
  TimedEpochSource(fcma::core::EpochSource& inner, Probe& probe)
      : inner_(&inner), probe_(&probe) {}

  [[nodiscard]] const std::vector<fcma::fmri::Epoch>& meta() const override {
    return inner_->meta();
  }
  [[nodiscard]] std::size_t voxels() const override {
    return inner_->voxels();
  }
  [[nodiscard]] Lease acquire(std::size_t first, std::size_t last) override;
  void prefetch(std::size_t first, std::size_t last) override {
    inner_->prefetch(first, last);
  }

 private:
  fcma::core::EpochSource* inner_;
  Probe* probe_;
};

/// At most 4 threads per measured process: the caller plus 3 pool
/// workers, or the master, the standby and 2 worker ranks.
inline constexpr std::size_t kPoolWorkers = 3;
inline constexpr std::size_t kFarmWorkers = 2;

/// One workload: set-up, analysis and the checks of each kept result.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds what the analysis needs; `probe` non-null = traced repetition.
  virtual void setup(Probe* probe) = 0;
  /// Runs the analysis on the set-up objects and keeps its result.
  virtual void analyze(Probe* probe) = 0;
  /// Drops the set-up objects so the next repetition starts afresh.
  virtual void teardown() = 0;
  /// Computes the references the kept results are checked against; runs
  /// after the timed repetitions.
  virtual void prepare_checks() = 0;
  /// Checks kept result `i`; throws CheckFailure (or fcma::Error).
  virtual void check(std::size_t i) const = 0;
  [[nodiscard]] virtual std::size_t results() const = 0;

  /// Per-layer metrics of the traced repetition just analyzed (call before
  /// teardown), read from the program's flushed trace registry and the
  /// probe.  Every per-layer metric is present; those that do not apply to
  /// the workload read 0.
  [[nodiscard]] virtual std::map<std::string, double> layers(
      const Probe& probe, double wall_s) const = 0;
};

/// Creates the named workload over the generated inputs at `stem`.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const std::string& stem,
                                                      std::uint64_t seed);

/// Every per-layer metric name, in report order, with its unit.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layer_metrics();

}  // namespace e2e
