// Bad configurations fail fast at the library boundary: TestBed's cluster
// builders, MapReduceEngine::submit and Hdfs::stage_file throw
// std::invalid_argument with a message naming the offending field, instead
// of a SIGFPE, an abort or a run that never ends deep inside the stack.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "harness/testbed.h"
#include "workload/benchmarks.h"

namespace hybridmr::harness {
namespace {

struct BadConfig {
  const char* name;
  std::function<void(TestBed&)> apply;
  const char* field;  // must appear in the exception message
};

// Submits `spec` on a small, otherwise valid cluster.
std::function<void(TestBed&)> submit(mapred::JobSpec spec) {
  return [spec](TestBed& bed) {
    bed.add_virtual_nodes(2, 2);
    bed.mr().submit(spec);
  };
}

mapred::JobSpec sort_with(const std::function<void(mapred::JobSpec&)>& edit) {
  mapred::JobSpec spec = workload::sort_job().with_input_gb(1);
  edit(spec);
  return spec;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

const BadConfig kBadConfigs[] = {
    {"native_count_negative",
     [](TestBed& bed) { bed.add_native_nodes(-3); }, "count"},
    {"virtual_hosts_negative",
     [](TestBed& bed) { bed.add_virtual_nodes(-1, 2); }, "hosts"},
    {"virtual_vms_per_host_zero",
     [](TestBed& bed) { bed.add_virtual_nodes(2, 0); }, "vms_per_host"},
    {"split_hosts_negative",
     [](TestBed& bed) { bed.add_split_nodes(-2, 2); }, "hosts"},
    {"split_compute_vms_zero",
     [](TestBed& bed) { bed.add_split_nodes(2, 0); },
     "compute_vms_per_host"},
    {"dom0_count_negative",
     [](TestBed& bed) { bed.add_dom0_nodes(-1); }, "count"},
    {"plain_count_negative",
     [](TestBed& bed) { bed.add_plain_machines(-1); }, "count"},
    {"submit_without_nodes",
     [](TestBed& bed) { bed.mr().submit(workload::sort_job()); },
     "TaskTracker"},
    {"input_gb_zero", submit(workload::sort_job().with_input_gb(0)),
     "input_gb"},
    {"input_gb_negative", submit(workload::sort_job().with_input_gb(-1)),
     "input_gb"},
    {"input_gb_nan", submit(workload::sort_job().with_input_gb(kNaN)),
     "input_gb"},
    {"input_gb_inf", submit(workload::sort_job().with_input_gb(kInf)),
     "input_gb"},
    {"num_reducers_negative", submit(workload::sort_job().with_reducers(-2)),
     "num_reducers"},
    {"output_replicas_negative",
     submit(sort_with([](auto& s) { s.output_replicas = -1; })),
     "output_replicas"},
    {"split_mb_negative",
     submit(sort_with([](auto& s) { s.split_mb = sim::MegaBytes{-8}; })),
     "split_mb"},
    {"task_memory_nan",
     submit(sort_with(
         [](auto& s) { s.task_memory_mb = sim::MegaBytes{kNaN}; })),
     "task_memory_mb"},
    {"map_selectivity_inf",
     submit(sort_with([](auto& s) { s.map_selectivity = kInf; })),
     "map_selectivity"},
    {"stage_file_without_datanodes",
     [](TestBed& bed) {
       bed.hdfs().stage_file("input", sim::MegaBytes{256});
     },
     "DataNode"},
};

class BadConfigTest : public ::testing::TestWithParam<BadConfig> {};

TEST_P(BadConfigTest, ThrowsInvalidArgumentNamingTheField) {
  TestBed bed;
  try {
    GetParam().apply(bed);
    FAIL() << "accepted a bad configuration";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().field), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    LibraryBoundary, BadConfigTest, ::testing::ValuesIn(kBadConfigs),
    [](const ::testing::TestParamInfo<BadConfig>& info) {
      return std::string(info.param.name);
    });

// The boundary still accepts the edge of the valid range.
TEST(GoodConfig, ZeroCountsAddNothingAndTinyInputsRun) {
  TestBed bed;
  EXPECT_TRUE(bed.add_native_nodes(0).empty());
  EXPECT_TRUE(bed.add_plain_machines(0).empty());
  bed.add_virtual_nodes(1, 2);
  mapred::Job* job = bed.mr().submit(workload::sort_job().with_input_gb(1e-3));
  bed.sim().run();
  EXPECT_TRUE(job->finished() && job->succeeded());
}

}  // namespace
}  // namespace hybridmr::harness
