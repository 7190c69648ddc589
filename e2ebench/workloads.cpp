#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <set>

#include "common/trace.hpp"
#include "fcma/memory_model.hpp"
#include "fcma/pipeline.hpp"
#include "fcma/report.hpp"
#include "fcma/selection.hpp"
#include "fmri/shard_store.hpp"

namespace e2e {

namespace {

using fcma::core::EpochSource;
using fcma::core::ResidentEpochs;
using fcma::core::Scoreboard;
using fcma::core::VoxelTask;
using fcma::fmri::DatasetView;
using Clock = std::chrono::steady_clock;

// CLI defaults of the three commands.
constexpr std::size_t kAnalyzeGroup = 64;  // analyze --grouped
constexpr double kFdr = 0.05;              // analyze/cluster --fdr
constexpr std::size_t kTopK = 20;          // analyze/cluster --top-k
constexpr std::size_t kOfflineTopK = 32;   // offline --top-k
constexpr std::size_t kOfflineTask = 64;   // offline --voxels-per-task

// Fixed check thresholds (README.md, "Correctness checks").
constexpr double kMinRecovery = 0.75;     // of the top-|planted| voxels
constexpr double kChanceMargin = 0.25;    // held-out accuracy >= 0.5 + this
constexpr double kMinPlantedShare = 0.75; // of each fold's selection
// `fcma cluster --voxels-per-task`.  The 8M plan's own grain is 2 voxels
// (512 tasks); both ranks then stall on each other's panel loads and the
// wall time doubled whenever the host's steal time rose.  16-voxel tasks
// keep the panel cache evicting while compute dominates (README.md).
constexpr std::size_t kFarmTaskVoxels = 16;
constexpr std::size_t kSampleSpread = 32; // evenly spaced sample voxels
constexpr std::size_t kSamplePlanted = 16;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

std::vector<std::uint32_t> read_planted(const std::string& stem) {
  std::ifstream in(stem + ".planted");
  std::vector<std::uint32_t> planted;
  for (std::uint32_t v = 0; in >> v;) planted.push_back(v);
  if (planted.empty()) throw std::runtime_error("no planted voxels in " + stem);
  return planted;
}

std::unique_ptr<DatasetView> open_view(const std::string& stem,
                                       Probe* probe) {
  const auto t0 = Clock::now();
  auto view = fcma::fmri::open_dataset_view(stem, stem);
  if (probe == nullptr) return view;
  probe->open_s = seconds_since(t0);
  return std::make_unique<TimedDatasetView>(std::move(view), *probe);
}

/// The source an analysis reads: `inner` itself, or in a traced repetition
/// `inner` behind the timing decorator held in `timed`.
EpochSource& source(EpochSource& inner, Probe* probe,
                    std::optional<TimedEpochSource>& timed) {
  if (probe == nullptr) return inner;
  return timed.emplace(inner, *probe);
}

/// Planted voxels first, then evenly spaced voxels at a seed-dependent
/// offset: the voxels re-scored serially for the bit-identity check.
std::vector<std::uint32_t> sample_voxels(
    std::size_t voxels, const std::vector<std::uint32_t>& planted,
    std::uint64_t seed) {
  std::set<std::uint32_t> pick(
      planted.begin(),
      planted.begin() +
          static_cast<std::ptrdiff_t>(std::min(kSamplePlanted, planted.size())));
  const std::size_t stride = std::max<std::size_t>(1, voxels / kSampleSpread);
  for (std::size_t v = seed % stride; v < voxels; v += stride) {
    pick.insert(static_cast<std::uint32_t>(v));
  }
  return {pick.begin(), pick.end()};
}

/// Scores `voxels` one at a time on the calling thread (no pool) through
/// run_task over a resident source.
std::map<std::uint32_t, double> serial_scores(
    EpochSource& resident, const std::vector<std::uint32_t>& voxels) {
  fcma::core::PipelineConfig serial = fcma::core::PipelineConfig::optimized();
  std::map<std::uint32_t, double> out;
  for (const std::uint32_t v : voxels) {
    out[v] = fcma::core::run_task(resident, VoxelTask{v, 1}, serial)
                 .accuracy.front();
  }
  return out;
}

// --- trace registry totals -------------------------------------------------

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double span_total(const std::function<bool(const std::string&)>& match) {
  const fcma::trace::Registry& reg = fcma::trace::global();
  double total = 0.0;
  for (const std::string& label : reg.span_labels()) {
    if (match(label)) total += reg.span(label).total_s;
  }
  return total;
}

bool has_suffix(const std::string& label, const std::string& suffix) {
  return label == suffix || ends_with(label, "/" + suffix);
}

double span_total_suffix(const std::string& suffix) {
  return span_total(
      [&](const std::string& l) { return has_suffix(l, suffix); });
}

/// Self time of the spans labelled `suffix`: their totals minus what their
/// direct child spans cover.  A pool worker that joins help-first runs
/// other tasks inside its own open span, and those nest as children.
double span_self_suffix(const std::string& suffix) {
  const fcma::trace::Registry& reg = fcma::trace::global();
  const std::vector<std::string> labels = reg.span_labels();
  double self = 0.0;
  for (const std::string& parent : labels) {
    if (!has_suffix(parent, suffix)) continue;
    self += reg.span(parent).total_s;
    for (const std::string& child : labels) {
      if (child.size() > parent.size() + 1 &&
          child.compare(0, parent.size() + 1, parent + "/") == 0 &&
          child.find('/', parent.size() + 1) == std::string::npos) {
        self -= reg.span(child).total_s;
      }
    }
  }
  return self;
}

/// What a workload's per-layer figures depend on beyond the registry.
struct LayerInputs {
  double wall_s = 0.0;
  double correlation_flops = 0.0;
  double syrk_flops = 0.0;
  std::size_t pool_workers = 0;     ///< 0 = no scheduler pool
  std::vector<double> attributed;   ///< blocking-path parts of wall_s
};

std::map<std::string, double> registry_layers(const Probe& probe,
                                              const LayerInputs& in) {
  const fcma::trace::Registry& reg = fcma::trace::global();
  std::map<std::string, double> m;
  for (const auto& [name, unit] : layer_metrics()) m[name] = 0.0;

  m["fmri.open_s"] = probe.open_s;
  m["fmri.normalize_epochs_s"] = probe.normalize_s;
  m["fmri.panel_reads"] = static_cast<double>(probe.panel_reads.load());
  m["fmri.panel_read_s"] = static_cast<double>(probe.panel_read_ns.load()) * 1e-9;
  const auto leased = static_cast<double>(probe.panels_leased.load());
  m["fcma.epoch_source.acquires"] = static_cast<double>(probe.acquires.load());
  m["fcma.epoch_source.wait_s"] = static_cast<double>(probe.acquire_ns.load()) * 1e-9;
  m["fcma.epoch_source.hit_ratio"] =
      leased > 0.0
          ? 1.0 - static_cast<double>(reg.counter("io/shard_loads")) / leased
          : 0.0;
  m["fcma.epoch_source.stall_s"] = reg.gauge("io/stall_s");

  const double corr_s = span_total_suffix("task/correlation");
  const double syrk_s = span_total([](const std::string& l) {
    // Per-voxel kernel syrk: under the grouped task, inside the SVM stage,
    // or rooted on a pool worker running a stage-3 voxel.  The offline
    // classifier's gram syrk (under offline_fold) is not a kernel layer.
    return l == "syrk" || ends_with(l, "task/syrk") ||
           ends_with(l, "task/svm/syrk");
  });
  m["fcma.correlation_s"] = corr_s;
  m["stats.normalization_s"] = span_total_suffix("task/normalization");
  m["linalg.syrk_s"] = syrk_s;
  m["linalg.gemm_gflops"] = corr_s > 0.0 ? in.correlation_flops / corr_s / 1e9 : 0.0;
  m["linalg.syrk_gflops"] = syrk_s > 0.0 ? in.syrk_flops / syrk_s / 1e9 : 0.0;
  m["svm.cv_s"] = span_self_suffix("task/svm");
  m["svm.iterations"] = static_cast<double>(reg.counter("svm/cv_iterations"));

  const double busy = span_total([](const std::string& l) {
    return l.rfind("sched/worker", 0) == 0 && ends_with(l, "/busy");
  });
  m["sched.busy_s"] = busy;
  m["sched.utilization"] =
      in.pool_workers > 0
          ? busy / (static_cast<double>(in.pool_workers) * in.wall_s)
          : 0.0;
  m["sched.steals"] = static_cast<double>(reg.counter("sched/steals"));

  const fcma::trace::SpanStats fold = reg.span("offline_fold");
  m["fcma.offline.fold_s"] =
      fold.count > 0 ? fold.total_s / static_cast<double>(fold.count) : 0.0;
  m["cluster.queue_s"] = span_total_suffix("cluster/queue");
  m["cluster.comm_s"] = span_total_suffix("cluster/comm/assign") +
                        span_total_suffix("cluster/comm/result");
  m["common.workspace_bytes_held"] = reg.gauge("workspace/bytes_held");
  m["common.trace_coverage"] = coverage(in.attributed, in.wall_s);
  return m;
}

/// Scoreboard-producing analyses (analyze, cluster): the scoreboard, the
/// FDR-selected set and the rendered report.
struct ScoredResult {
  Scoreboard board{0};
  std::vector<std::uint32_t> selected;
  std::string report;
  fcma::cluster::DriverStats stats;
};

ScoredResult finish(Scoreboard board, std::size_t cv_total, Probe* probe) {
  ScoredResult r;
  auto t0 = Clock::now();
  r.selected = fcma::core::significant_voxels(board, cv_total, kFdr,
                                              fcma::core::Correction::kFdr);
  if (probe != nullptr) probe->select_s = seconds_since(t0);
  t0 = Clock::now();
  fcma::core::ReportOptions opts;
  opts.cv_total = cv_total;
  opts.top_voxels = kTopK;
  r.report = fcma::core::render_report(board, r.selected, nullptr, opts);
  if (probe != nullptr) probe->report_s = seconds_since(t0);
  r.board = std::move(board);
  return r;
}

void check_scored(const ScoredResult& r, std::size_t cv_total,
                  const std::vector<std::uint32_t>& planted,
                  const std::map<std::uint32_t, double>& reference) {
  check_board(r.board, cv_total);
  check_planted_recovery(r.board, planted, kMinRecovery);
  check_matches_reference(r.board, reference);
  check_fdr_set(r.board, r.selected, r.report);
}

// --- wholebrain: `fcma analyze` on a resident study ------------------------

class WholeBrain final : public Workload {
 public:
  WholeBrain(std::string stem, std::uint64_t seed)
      : stem_(std::move(stem)), seed_(seed), planted_(read_planted(stem_)) {}

  void setup(Probe* probe) override {
    view_ = open_view(stem_, probe);
    const auto t0 = Clock::now();
    epochs_ = fcma::fmri::normalize_epochs(*view_);
    if (probe != nullptr) probe->normalize_s = seconds_since(t0);
    resident_.emplace(*epochs_);
    pool_.emplace(kPoolWorkers);
  }

  void analyze(Probe* probe) override {
    fcma::core::PipelineConfig config = fcma::core::PipelineConfig::optimized();
    config.pool = &*pool_;
    const std::size_t v = view_->voxels();
    const VoxelTask all{0, static_cast<std::uint32_t>(v)};
    Scoreboard board(v);
    std::optional<TimedEpochSource> timed;
    board.add(fcma::core::run_task_grouped(source(*resident_, probe, timed),
                                           all, config, kAnalyzeGroup));
    results_.push_back(finish(std::move(board), view_->epochs().size(), probe));
  }

  void teardown() override {
    pool_.reset();
    resident_.reset();
    epochs_.reset();
    view_.reset();
  }

  void prepare_checks() override {
    const auto view = fcma::fmri::open_dataset_view(stem_, stem_);
    const fcma::fmri::NormalizedEpochs epochs =
        fcma::fmri::normalize_epochs(*view);
    ResidentEpochs resident(epochs);
    cv_total_ = view->epochs().size();
    reference_ = serial_scores(
        resident, sample_voxels(view->voxels(), planted_, seed_));
  }

  void check(std::size_t i) const override {
    check_scored(results_.at(i), cv_total_, planted_, reference_);
  }
  [[nodiscard]] std::size_t results() const override { return results_.size(); }

  [[nodiscard]] std::map<std::string, double> layers(
      const Probe& probe, double wall_s) const override {
    const std::size_t v = view_->voxels();
    const std::size_t m = view_->epochs().size();
    LayerInputs in;
    in.wall_s = wall_s;
    in.correlation_flops =
        correlation_flops(v, m, v, view_->epochs().front().length);
    in.syrk_flops = syrk_flops(v, m, v);
    in.pool_workers = kPoolWorkers;
    // Every layer of the grouped task runs on the calling thread in turn:
    // correlation, normalization and per-voxel syrk per group, then the
    // SVM phase (fanned out, timed by its span on the caller), then the
    // FDR selection and the report.
    in.attributed = {span_total_suffix("task/correlation"),
                     span_total_suffix("task/normalization"),
                     span_total_suffix("task/syrk"),
                     span_total_suffix("task/svm"), probe.select_s,
                     probe.report_s};
    return registry_layers(probe, in);
  }

 private:
  std::string stem_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> planted_;
  std::unique_ptr<DatasetView> view_;
  std::optional<fcma::fmri::NormalizedEpochs> epochs_;
  std::optional<ResidentEpochs> resident_;
  std::optional<fcma::threading::ThreadPool> pool_;
  std::vector<ScoredResult> results_;
  std::size_t cv_total_ = 0;
  std::map<std::uint32_t, double> reference_;
};

// --- loso: `fcma offline` (nested leave-one-subject-out) --------------------

class Loso final : public Workload {
 public:
  Loso(std::string stem, std::uint64_t seed)
      : stem_(std::move(stem)), seed_(seed), planted_(read_planted(stem_)) {}

  void setup(Probe* probe) override {
    view_ = open_view(stem_, probe);
    pool_.emplace(kPoolWorkers);
  }

  void analyze(Probe* /*probe*/) override {
    fcma::core::OfflineOptions opts;
    opts.top_k = kOfflineTopK;
    opts.voxels_per_task = kOfflineTask;
    opts.pipeline.pool = &*pool_;
    results_.push_back(fcma::core::run_offline_analysis(*view_, opts));
  }

  void teardown() override {
    pool_.reset();
    view_.reset();
  }

  void prepare_checks() override {
    const auto view = fcma::fmri::open_dataset_view(stem_, stem_);
    const std::vector<std::uint32_t> sample =
        sample_voxels(view->voxels(), planted_, seed_);
    expect_.clear();
    for (std::int32_t fold = 0; fold < view->subjects(); ++fold) {
      std::vector<std::size_t> train;
      for (std::size_t e = 0; e < view->epochs().size(); ++e) {
        if (view->epochs()[e].subject != fold) train.push_back(e);
      }
      const fcma::fmri::NormalizedEpochs training =
          fcma::fmri::normalize_epochs(*view, train);
      ResidentEpochs resident(training);
      // Re-score the sample plus whatever any repetition selected.
      std::set<std::uint32_t> voxels(sample.begin(), sample.end());
      for (const auto& r : results_) {
        for (const auto& f : r.folds) {
          if (f.left_out_subject == fold) {
            voxels.insert(f.selected.begin(), f.selected.end());
          }
        }
      }
      FoldExpectation e;
      e.train_epochs = train.size();
      e.test_epochs = view->epochs().size() - train.size();
      e.top_k = kOfflineTopK;
      e.min_test_accuracy = 0.5 + kChanceMargin;
      e.min_planted_share = kMinPlantedShare;
      e.serial_scores =
          serial_scores(resident, {voxels.begin(), voxels.end()});
      expect_.push_back(std::move(e));
    }
  }

  void check(std::size_t i) const override {
    const fcma::core::OfflineResult& r = results_.at(i);
    if (r.folds.size() != expect_.size()) {
      throw CheckFailure("offline study ran " + std::to_string(r.folds.size()) +
                         " folds, expected " + std::to_string(expect_.size()));
    }
    for (std::size_t f = 0; f < r.folds.size(); ++f) {
      if (r.folds[f].left_out_subject != static_cast<std::int32_t>(f)) {
        throw CheckFailure("folds out of subject order");
      }
      check_fold(r.folds[f], expect_[f], planted_);
    }
  }
  [[nodiscard]] std::size_t results() const override { return results_.size(); }

  [[nodiscard]] std::map<std::string, double> layers(
      const Probe& probe, double wall_s) const override {
    const std::size_t v = view_->voxels();
    const auto folds = static_cast<double>(view_->subjects());
    const std::size_t train =
        view_->epochs().size() - view_->epochs_per_subject();
    LayerInputs in;
    in.wall_s = wall_s;
    // Each fold scores every voxel on the other subjects' epochs.
    in.correlation_flops =
        folds * correlation_flops(v, train, v, view_->epochs().front().length);
    in.syrk_flops = folds * syrk_flops(v, train, v);
    in.pool_workers = kPoolWorkers;
    // Folds run one after another on the calling thread; only the
    // all-epoch normalization before the first fold lies outside them.
    in.attributed = {fcma::trace::global().span("offline_fold").total_s};
    return registry_layers(probe, in);
  }

 private:
  std::string stem_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> planted_;
  std::unique_ptr<DatasetView> view_;
  std::optional<fcma::threading::ThreadPool> pool_;
  std::vector<fcma::core::OfflineResult> results_;
  std::vector<FoldExpectation> expect_;
};

// --- farm-streamed: `fcma cluster --memory-budget` over a shard store -------

class FarmStreamed final : public Workload {
 public:
  FarmStreamed(std::string stem, std::uint64_t seed, std::size_t budget)
      : stem_(std::move(stem)),
        seed_(seed),
        budget_(budget),
        planted_(read_planted(stem_)) {}

  void setup(Probe* probe) override {
    view_ = open_view(stem_, probe);
    const fcma::core::BudgetPlan plan = fcma::core::plan_residency(
        view_->epochs().size(), view_->epochs_per_subject(), view_->voxels(),
        static_cast<std::size_t>(view_->epochs().front().length), budget_);
    opts_ = fcma::cluster::DriverOptions{};
    opts_.workers = kFarmWorkers;
    opts_.voxels_per_task = kFarmTaskVoxels;
    streamed_.emplace(*view_, fcma::core::StreamedEpochs::Options{
                                  plan.panel_cache_bytes, nullptr});
  }

  void analyze(Probe* probe) override {
    const std::size_t v = view_->voxels();
    fcma::cluster::DriverStats stats;
    std::optional<TimedEpochSource> timed;
    Scoreboard board = fcma::cluster::run_cluster_analysis(
        source(*streamed_, probe, timed), v, opts_, &stats);
    ScoredResult r = finish(std::move(board), view_->epochs().size(), probe);
    r.stats = std::move(stats);
    tasks_ = (v + opts_.voxels_per_task - 1) / opts_.voxels_per_task;
    results_.push_back(std::move(r));
  }

  void teardown() override {
    streamed_.reset();
    view_.reset();
  }

  void prepare_checks() override {
    const auto view = fcma::fmri::open_dataset_view(stem_, stem_);
    const fcma::fmri::NormalizedEpochs epochs =
        fcma::fmri::normalize_epochs(*view);
    ResidentEpochs resident(epochs);
    cv_total_ = view->epochs().size();
    reference_ = serial_scores(
        resident, sample_voxels(view->voxels(), planted_, seed_));
  }

  void check(std::size_t i) const override {
    const ScoredResult& r = results_.at(i);
    check_clean_farm(r.stats, tasks_);
    check_scored(r, cv_total_, planted_, reference_);
  }
  [[nodiscard]] std::size_t results() const override { return results_.size(); }

  [[nodiscard]] std::map<std::string, double> layers(
      const Probe& probe, double wall_s) const override {
    const ScoredResult& r = results_.back();
    const std::size_t v = view_->voxels();
    const std::size_t m = view_->epochs().size();
    LayerInputs in;
    in.wall_s = wall_s;
    in.correlation_flops =
        correlation_flops(v, m, v, view_->epochs().front().length);
    in.syrk_flops = syrk_flops(v, m, v);
    // The master waits for the busiest worker rank, then selects and
    // renders; dispatch, queueing and comm overlap the workers' compute.
    in.attributed = {r.stats.max_worker_busy_s(), probe.select_s,
                     probe.report_s};
    std::map<std::string, double> out = registry_layers(probe, in);
    out["cluster.tasks_dispatched"] =
        static_cast<double>(r.stats.tasks_dispatched);
    out["cluster.batches"] = static_cast<double>(r.stats.batches);
    out["cluster.work_requests"] = static_cast<double>(r.stats.work_requests);
    out["cluster.messages"] = static_cast<double>(r.stats.messages);
    out["cluster.imbalance"] = r.stats.imbalance_ratio();
    return out;
  }

 private:
  std::string stem_;
  std::uint64_t seed_;
  std::size_t budget_;
  std::vector<std::uint32_t> planted_;
  std::unique_ptr<DatasetView> view_;
  std::optional<fcma::core::StreamedEpochs> streamed_;
  fcma::cluster::DriverOptions opts_;
  std::vector<ScoredResult> results_;
  std::size_t tasks_ = 0;
  std::size_t cv_total_ = 0;
  std::map<std::uint32_t, double> reference_;
};

}  // namespace

DatasetView::Panel TimedDatasetView::epoch_panel(std::size_t idx) const {
  const auto t0 = Clock::now();
  Panel panel = inner_->epoch_panel(idx);
  probe_->panel_read_ns.fetch_add(ns_since(t0), std::memory_order_relaxed);
  probe_->panel_reads.fetch_add(1, std::memory_order_relaxed);
  return panel;
}

EpochSource::Lease TimedEpochSource::acquire(std::size_t first,
                                             std::size_t last) {
  const auto t0 = Clock::now();
  Lease lease = inner_->acquire(first, last);
  probe_->acquire_ns.fetch_add(ns_since(t0), std::memory_order_relaxed);
  probe_->acquires.fetch_add(1, std::memory_order_relaxed);
  probe_->panels_leased.fetch_add(last - first, std::memory_order_relaxed);
  return lease;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& stem,
                                        std::uint64_t seed) {
  const WorkloadSpec spec = workload_spec(name);
  if (name == "wholebrain") return std::make_unique<WholeBrain>(stem, seed);
  if (name == "loso") return std::make_unique<Loso>(stem, seed);
  return std::make_unique<FarmStreamed>(stem, seed, spec.memory_budget);
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"fmri.open_s", "s"},
      {"fmri.normalize_epochs_s", "s"},
      {"fmri.panel_reads", "count"},
      {"fmri.panel_read_s", "s"},
      {"fcma.epoch_source.acquires", "count"},
      {"fcma.epoch_source.wait_s", "s"},
      {"fcma.epoch_source.hit_ratio", "ratio"},
      {"fcma.epoch_source.stall_s", "s"},
      {"fcma.correlation_s", "s"},
      {"stats.normalization_s", "s"},
      {"linalg.syrk_s", "s"},
      {"linalg.gemm_gflops", "GFLOP/s"},
      {"linalg.syrk_gflops", "GFLOP/s"},
      {"svm.cv_s", "s"},
      {"svm.iterations", "count"},
      {"sched.busy_s", "s"},
      {"sched.utilization", "ratio"},
      {"sched.steals", "count"},
      {"fcma.offline.fold_s", "s"},
      {"cluster.tasks_dispatched", "count"},
      {"cluster.batches", "count"},
      {"cluster.work_requests", "count"},
      {"cluster.messages", "count"},
      {"cluster.imbalance", "ratio"},
      {"cluster.queue_s", "s"},
      {"cluster.comm_s", "s"},
      {"common.workspace_bytes_held", "bytes"},
      {"common.trace_coverage", "ratio"},
      {"common.trace_overhead_s", "s"},
  };
  return metrics;
}

}  // namespace e2e
