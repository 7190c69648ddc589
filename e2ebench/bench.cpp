// Measured process of the end-to-end benchmark.
//
//   e2e_bench --workload NAME --inputs STEM --seed N --seconds S --trace 0|1
//
// Reads the study e2e_gen wrote at STEM and repeats the workload (set-up,
// then analysis) for S seconds.  Every repetition is an operation: its
// result is checked after the timed loop against references computed
// apart, and one that throws or fails a check counts as failed.
//
// --trace 0 reports the end-to-end metrics: setup_s and wall_s (medians
// over the repetitions, tracing off) and peak_rss_mb (VmHWM after a fixed
// number of repetitions, read before the checks run).  --trace 1 alternates untraced and traced repetitions
// and reports the per-layer metrics (medians over the traced ones) plus
// the tracing overhead (median traced minus untraced wall time of each
// pair).  The last line of stdout is one JSON object.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// Set-ups also run on their own before each timed repetition, so setup_s
// is a median of many samples spread over the whole run even when the
// analysis is long.
constexpr int kExtraSetupsPerRep = 6;
// Floors on timed repetitions and on traced pairs, whatever --seconds says.
// peak_rss_mb is read after the warm-up and the first kMinReps timed
// repetitions: VmHWM only rises, so a read after a fixed number of
// analyses does not depend on how many of them fit in --seconds.
constexpr int kMinReps = 3;
constexpr int kMinTracedPairs = 2;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::string inputs;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--inputs") a.inputs = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = std::stoi(value);
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty() || a.inputs.empty() || !(a.seconds > 0.0) ||
      (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: e2e_bench --workload NAME --inputs STEM --seed N "
        "--seconds S --trace 0|1");
  }
  return a;
}

/// One repetition's timings; `ok` is false when set-up or analysis threw.
struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  bool ok = true;
};

Rep run_rep(e2e::Workload& w, e2e::Probe* probe,
            std::map<std::string, double>* layers) {
  Rep rep;
  try {
    const auto t0 = Clock::now();
    w.setup(probe);
    rep.setup_s = since(t0);
    const auto t1 = Clock::now();
    w.analyze(probe);
    rep.wall_s = since(t1);
    if (layers != nullptr) {
      fcma::trace::flush();
      *layers = w.layers(*probe, rep.wall_s);
    }
  } catch (const std::exception& e) {
    std::printf("repetition failed: %s\n", e.what());
    rep.ok = false;
  }
  w.teardown();
  return rep;
}

void print_metric(std::string& json, const std::string& name, double value,
                  const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                name.c_str(), value, unit.c_str());
  if (json.back() != '{') json += ", ";
  json += buf;
}

int run(const Args& args) {
  std::printf("host: %s\n", e2e::host_fingerprint().c_str());
  auto w = e2e::make_workload(args.workload, args.inputs, args.seed);
  long attempted = 0;
  long failed = 0;
  auto account = [&](const Rep& r) {
    ++attempted;
    if (!r.ok) ++failed;
  };

  // Warm-up: the first analysis of a process pays one-time costs (the
  // kernel autotuner's probe sweep, workspace growth, page faults) that
  // the repetitions after it do not.
  account(run_rep(*w, nullptr, nullptr));

  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> overhead_s;
  std::map<std::string, std::vector<double>> layer_samples;
  double peak_mib = 0.0;
  const int min_reps = args.trace == 0 ? kMinReps : kMinTracedPairs;
  const auto start = Clock::now();
  for (int i = 0; i < min_reps || since(start) < args.seconds; ++i) {
    for (int k = 0; args.trace == 0 && k < kExtraSetupsPerRep; ++k) {
      const auto t0 = Clock::now();
      w->setup(nullptr);
      setup_s.push_back(since(t0));
      w->teardown();
    }
    const Rep plain = run_rep(*w, nullptr, nullptr);
    account(plain);
    if (args.trace == 0) {
      if (i == kMinReps - 1) peak_mib = e2e::peak_rss_mib();
      if (!plain.ok) continue;
      setup_s.push_back(plain.setup_s);
      wall_s.push_back(plain.wall_s);
      continue;
    }
    fcma::trace::flush();
    fcma::trace::global().reset();
    fcma::trace::set_enabled(true);
    e2e::Probe probe;
    std::map<std::string, double> layers;
    const Rep traced = run_rep(*w, &probe, &layers);
    fcma::trace::set_enabled(false);
    account(traced);
    if (!plain.ok || !traced.ok) continue;
    overhead_s.push_back(traced.wall_s - plain.wall_s);
    for (const auto& [name, value] : layers) {
      layer_samples[name].push_back(value);
    }
  }

  w->prepare_checks();
  for (std::size_t i = 0; i < w->results(); ++i) {
    try {
      w->check(i);
    } catch (const std::exception& e) {
      std::printf("check of repetition %zu failed: %s\n", i, e.what());
      ++failed;
    }
  }

  std::string metrics = "{";
  if (args.trace == 0) {
    if (wall_s.size() >= 2) {
      const e2e::Quartiles su = e2e::quartiles(setup_s);
      const e2e::Quartiles wq = e2e::quartiles(wall_s);
      std::printf("set-ups: %zu, quartiles %.6g %.6g %.6g s\n",
                  setup_s.size(), su.q1, su.q2, su.q3);
      std::printf("analyses: %zu, quartiles %.6g %.6g %.6g s\n",
                  wall_s.size(), wq.q1, wq.q2, wq.q3);
    }
    if (!wall_s.empty()) {
      print_metric(metrics, "setup_s", e2e::median(setup_s), "s");
      print_metric(metrics, "wall_s", e2e::median(wall_s), "s");
    }
    print_metric(metrics, "peak_rss_mb", peak_mib, "MiB");
  } else {
    std::printf("traced pairs: %zu\n", overhead_s.size());
    for (const auto& [name, unit] : e2e::layer_metrics()) {
      const auto it = layer_samples.find(name);
      if (name == "common.trace_overhead_s") {
        if (!overhead_s.empty()) {
          print_metric(metrics, name, e2e::median(overhead_s), unit);
        }
      } else if (it != layer_samples.end()) {
        print_metric(metrics, name, e2e::median(it->second), unit);
      }
    }
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
