// Volumetric end-to-end study: the closest thing to a real FCMA deployment
// this repository can run without human data.
//
//   1. synthesize a 3D scan: an ellipsoid brain mask with two planted
//      connectivity ROIs, scanner drift, and a motion spike;
//   2. preprocess: detrend, censor spiked epochs, spatially smooth;
//   3. run the FCMA pipeline over the surviving epochs;
//   4. select voxels with FDR-controlled binomial significance;
//   5. cluster the selection into ROIs and render the analysis report.
//
// Build & run:  ./build/examples/volumetric_study
#include <cstdio>

#include "common/timer.hpp"
#include "fcma/pipeline.hpp"
#include "fcma/report.hpp"
#include "fcma/scoreboard.hpp"
#include "fcma/selection.hpp"
#include "fmri/preprocess.hpp"
#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"

int main() {
  using namespace fcma;

  // ---- 1. synthesize ----------------------------------------------------
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.informative = 24;
  spec.subjects = 6;
  spec.epochs_total = 72;
  const fmri::VolumeGeometry geometry{12, 12, 8};
  fmri::VolumetricDataset vol =
      fmri::generate_synthetic_volumetric(spec, geometry, 2);
  fmri::Dataset& scan = vol.dataset;
  std::printf("synthetic scan: %dx%dx%d grid, %zu brain voxels, %zu planted"
              " ROI voxels in %zu blobs\n",
              geometry.nx, geometry.ny, geometry.nz, scan.voxels(),
              scan.informative_voxels().size(), vol.planted_rois.size());

  // Corrupt it the way real scans are corrupted.
  for (std::size_t v = 0; v < scan.voxels(); ++v) {
    const float drift = 0.002f * static_cast<float>(v % 5 + 1);
    for (std::size_t t = 0; t < scan.timepoints(); ++t) {
      scan.data()(v, t) += drift * static_cast<float>(t);  // scanner drift
    }
  }
  for (std::size_t v = 0; v < scan.voxels(); ++v) {
    scan.data()(v, 200) += 20.0f;  // a head-motion spike at TR 200
  }

  // ---- 2. preprocess ----------------------------------------------------
  fmri::detrend_dataset(scan, 1);
  const auto spikes = fmri::detect_motion_spikes(scan, 8.0);
  const auto usable = fmri::usable_epochs(scan, spikes);
  std::printf("preprocess: detrended; %zu motion spike(s) found, %zu of %zu"
              " epochs usable\n",
              spikes.size(), usable.size(), scan.epochs().size());
  fmri::spatial_smooth(scan, vol.mask, 1.5);

  // ---- 3. FCMA pipeline -------------------------------------------------
  WallTimer timer;
  const fmri::NormalizedEpochs epochs = fmri::normalize_epochs(scan, usable);
  core::Scoreboard board(scan.voxels());
  const core::VoxelTask all{0, static_cast<std::uint32_t>(scan.voxels())};
  core::ResidentEpochs source(epochs);
  board.add(core::run_task_grouped(source, all,
                                   core::PipelineConfig::optimized(), 64));
  std::printf("pipeline (grouped, 64 voxels in flight): %.1f s\n",
              timer.seconds());

  // ---- 4. significance-controlled selection ------------------------------
  const auto selected = core::significant_voxels(
      board, epochs.meta.size(), 0.05, core::Correction::kFdr);
  std::printf("FDR (q = 0.05) selected %zu voxels\n", selected.size());

  // ---- 5. ROI clustering + report ----------------------------------------
  core::ReportOptions report_options;
  report_options.cv_total = epochs.meta.size();
  report_options.top_voxels = 12;
  const std::string report =
      core::render_report(board, selected, &vol.mask, report_options);
  std::fputs(report.c_str(), stdout);

  // Ground-truth check: how many planted ROI voxels did FDR recover?
  std::size_t hits = 0;
  const auto& truth = scan.informative_voxels();
  for (const auto v : selected) {
    hits += std::binary_search(truth.begin(), truth.end(), v);
  }
  std::printf("\nplanted-voxel recall: %zu/%zu; selection precision: "
              "%.0f%%\n",
              hits, truth.size(),
              selected.empty()
                  ? 0.0
                  : 100.0 * static_cast<double>(hits) /
                        static_cast<double>(selected.size()));
  return 0;
}
