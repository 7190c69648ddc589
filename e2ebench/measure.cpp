#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "linalg/simd.hpp"

namespace e2e {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two values");
  }
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() + 1;
  double cut[3] = {};
  for (std::size_t i = 1; i <= 3; ++i) {
    // statistics.quantiles(method="exclusive"): j = i*m // 4 with the
    // remainder interpolating between the j-th and (j+1)-th order
    // statistics, both clamped to the sample.
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1,
                                                  values.size() - 1);
    const auto delta = static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return Quartiles{cut[0], cut[1], cut[2]};
}

double correlation_flops(std::size_t task_voxels, std::size_t epochs,
                         std::size_t brain_voxels,
                         std::size_t epoch_length) {
  return 2.0 * static_cast<double>(task_voxels) *
         static_cast<double>(epochs) * static_cast<double>(brain_voxels) *
         static_cast<double>(epoch_length);
}

double syrk_flops(std::size_t voxels, std::size_t epochs,
                  std::size_t brain_voxels) {
  return static_cast<double>(voxels) * static_cast<double>(epochs) *
         static_cast<double>(epochs) * static_cast<double>(brain_voxels);
}

double coverage(const std::vector<double>& attributed_s, double wall_s) {
  if (!(wall_s > 0.0)) throw std::invalid_argument("coverage: wall <= 0");
  double sum = 0.0;
  for (const double part : attributed_s) {
    if (part < 0.0) throw std::invalid_argument("coverage: negative part");
    sum += part;
  }
  return sum / wall_s;
}

double planted_recovery(const fcma::core::Scoreboard& board,
                        const std::vector<std::uint32_t>& planted) {
  if (planted.empty()) throw CheckFailure("no planted voxels to recover");
  if (!board.complete()) throw CheckFailure("scoreboard is incomplete");
  std::vector<std::uint32_t> order(board.total_voxels());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<double> acc(order.size());
  for (const std::uint32_t v : order) acc[v] = board.accuracy_of(v);
  const std::size_t k = std::min(planted.size(), order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](std::uint32_t a, std::uint32_t b) {
                      return acc[a] != acc[b] ? acc[a] > acc[b] : a < b;
                    });
  std::vector<std::uint32_t> top(order.begin(),
                                 order.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(top.begin(), top.end());
  std::size_t hits = 0;
  for (const std::uint32_t v : planted) {
    hits += std::binary_search(top.begin(), top.end(), v) ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(planted.size());
}

void check_planted_recovery(const fcma::core::Scoreboard& board,
                            const std::vector<std::uint32_t>& planted,
                            double min_recovery) {
  const double r = planted_recovery(board, planted);
  if (r < min_recovery) {
    throw CheckFailure("planted recovery " + std::to_string(r) +
                       " below " + std::to_string(min_recovery));
  }
}

void check_k_over_m(double accuracy, std::size_t m, const std::string& what) {
  if (m == 0) throw CheckFailure(what + ": no samples");
  const double scaled = accuracy * static_cast<double>(m);
  const double k = std::round(scaled);
  if (!(k >= 0.0 && k <= static_cast<double>(m)) ||
      accuracy != k / static_cast<double>(m)) {
    std::ostringstream msg;
    msg.precision(17);
    msg << what << ": accuracy " << accuracy << " is not k/" << m;
    throw CheckFailure(msg.str());
  }
}

void check_board(const fcma::core::Scoreboard& board, std::size_t m) {
  if (!board.complete()) {
    throw CheckFailure("scoreboard holds " + std::to_string(board.scored()) +
                       " of " + std::to_string(board.total_voxels()) +
                       " voxels");
  }
  for (std::uint32_t v = 0; v < board.total_voxels(); ++v) {
    check_k_over_m(board.accuracy_of(v), m, "voxel " + std::to_string(v));
  }
}

void check_matches_reference(
    const fcma::core::Scoreboard& board,
    const std::map<std::uint32_t, double>& reference) {
  if (reference.empty()) throw CheckFailure("empty reference sample");
  for (const auto& [v, expected] : reference) {
    if (v >= board.total_voxels() || !board.voxel_scored(v)) {
      throw CheckFailure("reference voxel " + std::to_string(v) +
                         " not scored");
    }
    if (board.accuracy_of(v) != expected) {
      throw CheckFailure("voxel " + std::to_string(v) +
                         " differs from its serial resident score");
    }
  }
}

void check_fdr_set(const fcma::core::Scoreboard& board,
                   const std::vector<std::uint32_t>& selected,
                   const std::string& report) {
  if (selected.empty()) throw CheckFailure("FDR selected no voxels");
  if (!std::is_sorted(selected.begin(), selected.end()) ||
      std::adjacent_find(selected.begin(), selected.end()) != selected.end()) {
    throw CheckFailure("FDR set is not ascending voxel ids");
  }
  std::vector<bool> chosen(board.total_voxels(), false);
  double weakest = 1.0;
  for (const std::uint32_t v : selected) {
    if (v >= board.total_voxels() || !board.voxel_scored(v)) {
      throw CheckFailure("FDR set holds unscored voxel " + std::to_string(v));
    }
    chosen[v] = true;
    weakest = std::min(weakest, board.accuracy_of(v));
  }
  for (std::uint32_t v = 0; v < board.total_voxels(); ++v) {
    if (!chosen[v] && board.accuracy_of(v) >= weakest) {
      throw CheckFailure("FDR set skips voxel " + std::to_string(v));
    }
  }
  const std::string scored =
      "voxels scored: " + std::to_string(board.scored()) + "\n";
  const std::string picked =
      "voxels selected: " + std::to_string(selected.size()) + "\n";
  if (report.find(scored) == std::string::npos ||
      report.find(picked) == std::string::npos) {
    throw CheckFailure("report does not state the scored and selected counts");
  }
}

void check_clean_farm(const fcma::cluster::DriverStats& stats,
                      std::size_t tasks) {
  if (stats.workers_died != 0 || stats.retries != 0 ||
      stats.tasks_requeued != 0) {
    throw CheckFailure("farm recovered from faults: deaths=" +
                       std::to_string(stats.workers_died) +
                       " retries=" + std::to_string(stats.retries) +
                       " requeued=" + std::to_string(stats.tasks_requeued));
  }
  if (stats.tasks_dispatched != tasks) {
    throw CheckFailure("farm dispatched " +
                       std::to_string(stats.tasks_dispatched) + " of " +
                       std::to_string(tasks) + " tasks");
  }
}

void check_fold(const fcma::core::FoldResult& fold,
                const FoldExpectation& expect,
                const std::vector<std::uint32_t>& planted) {
  const std::string name = "fold " + std::to_string(fold.left_out_subject);
  if (fold.selected.size() != expect.top_k ||
      !std::is_sorted(fold.selected.begin(), fold.selected.end()) ||
      std::adjacent_find(fold.selected.begin(), fold.selected.end()) !=
          fold.selected.end()) {
    throw CheckFailure(name + ": selection is not " +
                       std::to_string(expect.top_k) + " ascending voxels");
  }
  check_k_over_m(fold.test_accuracy, expect.test_epochs,
                 name + " held-out accuracy");
  if (fold.test_accuracy < expect.min_test_accuracy) {
    throw CheckFailure(name + ": held-out accuracy " +
                       std::to_string(fold.test_accuracy) + " below " +
                       std::to_string(expect.min_test_accuracy));
  }
  std::vector<std::uint32_t> truth = planted;
  std::sort(truth.begin(), truth.end());
  std::size_t planted_hits = 0;
  for (const std::uint32_t v : fold.selected) {
    planted_hits += std::binary_search(truth.begin(), truth.end(), v) ? 1 : 0;
  }
  const double share = static_cast<double>(planted_hits) /
                       static_cast<double>(fold.selected.size());
  if (share < expect.min_planted_share) {
    throw CheckFailure(name + ": planted share of the selection " +
                       std::to_string(share) + " below " +
                       std::to_string(expect.min_planted_share));
  }
  // Same summation order as the analysis (ascending voxel id), so equal
  // per-voxel scores give a bit-identical mean.
  double sum = 0.0;
  double weakest = 1.0;
  for (const std::uint32_t v : fold.selected) {
    const auto it = expect.serial_scores.find(v);
    if (it == expect.serial_scores.end()) {
      throw CheckFailure(name + ": no serial score for selected voxel " +
                         std::to_string(v));
    }
    check_k_over_m(it->second, expect.train_epochs,
                   name + " voxel " + std::to_string(v));
    sum += it->second;
    weakest = std::min(weakest, it->second);
  }
  if (fold.mean_selected_cv_accuracy !=
      sum / static_cast<double>(fold.selected.size())) {
    throw CheckFailure(name +
                       ": mean selected CV accuracy differs from the serial "
                       "resident re-scoring");
  }
  for (const auto& [v, score] : expect.serial_scores) {
    if (!std::binary_search(fold.selected.begin(), fold.selected.end(), v) &&
        score > weakest) {
      throw CheckFailure(name + ": unselected voxel " + std::to_string(v) +
                         " outscores the selection");
    }
  }
}

std::string host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency() << " cpu=\"" << cpu
      << "\" isa="
      << fcma::linalg::simd::isa_name(fcma::linalg::simd::active_isa())
      << " compiler=\"" << E2E_COMPILER << "\" build=" << E2E_BUILD_TYPE;
  return out.str();
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

}  // namespace e2e
