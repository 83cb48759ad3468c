// cluster_sim_cli: run any of the paper's benchmarks on any cluster shape.
//
//   $ ./cluster_sim_cli <benchmark> <nodes> <native|virtual|dom0|split> [data_gb]
//   $ ./cluster_sim_cli sort 8 virtual 4
//
// Prints job phase timings, locality and utilization metrics — a handy way
// to poke at the substrate.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "harness/testbed.h"
#include "workload/benchmarks.h"

namespace {

// Whole-argument numeric parses: trailing junk, overflow and an empty
// string are all rejected (atoi/atof would quietly read them as 0).
bool parse_int(const char* text, long& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtol(text, &end, 10);
  return end != text && *end == '\0' && errno == 0;
}

bool parse_double(const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && errno == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hybridmr;
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <twitter|wcount|piest|distgrep|sort|kmeans> "
                 "<nodes> <native|virtual|dom0|split> [data_gb]\n",
                 argv[0]);
    return 2;
  }
  const std::string bench = argv[1];
  constexpr long kMaxNodes = 100000;
  long nodes_arg = 0;
  if (!parse_int(argv[2], nodes_arg) || nodes_arg < 1 ||
      nodes_arg > kMaxNodes) {
    std::fprintf(stderr, "nodes must be an integer in [1, %ld], got '%s'\n",
                 kMaxNodes, argv[2]);
    return 2;
  }
  const int nodes = static_cast<int>(nodes_arg);
  const std::string mode = argv[3];

  mapred::JobSpec spec;
  try {
    spec = workload::benchmark(bench);
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (argc > 4) {
    double gb = 0;
    if (!parse_double(argv[4], gb)) {
      std::fprintf(stderr, "data_gb must be a number, got '%s'\n", argv[4]);
      return 2;
    }
    spec = spec.with_input_gb(gb);
  }

  harness::TestBed bed;
  if (mode == "native") {
    bed.add_native_nodes(nodes);
  } else if (mode == "virtual") {
    bed.add_virtual_nodes((nodes + 1) / 2, 2);
  } else if (mode == "dom0") {
    bed.add_dom0_nodes(nodes);
  } else if (mode == "split") {
    bed.add_split_nodes((nodes + 1) / 2, 2);
  } else {
    std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
    return 2;
  }

  mapred::Job* job = nullptr;
  try {
    job = bed.mr().submit(spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  bed.sim().run();
  const double end = bed.sim().now();

  std::printf("benchmark      : %s (%s, %.1f GB)\n", spec.name.c_str(),
              to_string(spec.job_class), spec.input_gb);
  std::printf("cluster        : %d %s nodes (%zu tasktrackers)\n", nodes,
              mode.c_str(), bed.mr().trackers().size());
  std::printf("JCT            : %.1f s  (map %.1f s, reduce %.1f s)\n",
              job->jct(), job->map_phase_seconds(),
              job->reduce_phase_seconds());
  std::printf("tasks          : %zu maps, %zu reduces, %d speculative\n",
              job->maps().size(), job->reduces().size(),
              bed.mr().speculative_launched());
  const double local = bed.hdfs().bytes_read_local_mb().value();
  const double remote = bed.hdfs().bytes_read_remote_mb().value();
  std::printf("input locality : %.1f%% local (%.0f MB local, %.0f MB remote)\n",
              local + remote > 0 ? 100.0 * local / (local + remote) : 100.0,
              local, remote);
  std::printf("hdfs writes    : %.0f MB (replicated)\n",
              bed.hdfs().bytes_written_mb().value());
  std::printf("cpu util       : %.1f%%  energy: %.1f Wh\n",
              bed.cluster().mean_utilization(cluster::ResourceKind::kCpu, 0,
                                             end) *
                  100,
              bed.cluster().energy_joules(0, end).value() / 3600.0);
  return 0;
}
