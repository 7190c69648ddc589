// Input generator of the end-to-end benchmark, run in its own process
// before the measured one so that generation never counts in the measured
// process's peak RSS.
//
//   e2e_gen --workload NAME --seed N --out STEM
//
// Writes the workload's synthetic study under STEM (FCMB + epochs, or an
// fcma.shards.v1 store for farm-streamed) and the planted informative
// voxels, one id per line, to STEM.planted.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "fmri/io.hpp"
#include "fmri/shard_store.hpp"
#include "fmri/synthetic.hpp"
#include "specs.hpp"

int main(int argc, char** argv) {
  std::string workload;
  std::string out;
  long long seed = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") workload = argv[i + 1];
    else if (flag == "--out") out = argv[i + 1];
    else if (flag == "--seed") seed = std::atoll(argv[i + 1]);
  }
  if (workload.empty() || out.empty() || seed < 0) {
    std::fprintf(stderr,
                 "usage: e2e_gen --workload NAME --seed N --out STEM\n");
    return 2;
  }
  try {
    const e2e::WorkloadSpec w = e2e::workload_spec(workload);
    const fcma::fmri::Dataset d = fcma::fmri::generate_synthetic(
        e2e::study_spec(w, static_cast<std::uint64_t>(seed)));
    if (w.sharded) {
      fcma::fmri::write_shard_store(out, d);
    } else {
      fcma::fmri::save_dataset(out, d);
    }
    std::ofstream planted(out + ".planted");
    for (const std::uint32_t v : d.informative_voxels()) planted << v << '\n';
    if (!planted.flush()) throw std::runtime_error("cannot write planted");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_gen: %s\n", e.what());
    return 1;
  }
  return 0;
}
