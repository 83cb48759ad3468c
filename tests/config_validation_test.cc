// Bad configurations fail fast at the library boundary: TestBed's
// constructor (calibration and fault schedule), its cluster builders,
// MapReduceEngine::submit and Hdfs::stage_file throw std::invalid_argument
// with a message naming the offending field, instead of a SIGFPE, an abort
// or a run that never ends deep inside the stack.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <ostream>
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

// Prints the row name, so the test ids that list the parameter value stay
// the same from build to build.
void PrintTo(const BadConfig& c, std::ostream* os) { *os << c.name; }

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

// Constructs a second TestBed from default options edited by `edit`.
std::function<void(TestBed&)> construct(
    std::function<void(TestBed::Options&)> edit) {
  return [edit](TestBed&) {
    TestBed::Options options;
    edit(options);
    TestBed bed(options);
  };
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
    {"pm_cores_zero",
     construct([](auto& o) { o.calibration.pm_cores = 0; }), "pm_cores"},
    {"pm_memory_mb_negative",
     construct([](auto& o) {
       o.calibration.pm_memory_mb = sim::MegaBytes{-1};
     }),
     "pm_memory_mb"},
    {"pm_disk_mbps_nan",
     construct([](auto& o) { o.calibration.pm_disk_mbps = sim::MBps{kNaN}; }),
     "pm_disk_mbps"},
    {"pm_net_mbps_inf",
     construct([](auto& o) { o.calibration.pm_net_mbps = sim::MBps{kInf}; }),
     "pm_net_mbps"},
    {"vm_vcpus_zero",
     construct([](auto& o) { o.calibration.vm_vcpus = 0; }), "vm_vcpus"},
    {"vm_memory_mb_nan",
     construct([](auto& o) {
       o.calibration.vm_memory_mb = sim::MegaBytes{kNaN};
     }),
     "vm_memory_mb"},
    {"hdfs_block_mb_zero",
     construct([](auto& o) {
       o.calibration.hdfs_block_mb = sim::MegaBytes{0};
     }),
     "hdfs_block_mb"},
    {"heartbeat_s_negative",
     construct([](auto& o) { o.calibration.heartbeat_s = -1; }),
     "heartbeat_s"},
    {"control_epoch_s_inf",
     construct([](auto& o) { o.calibration.control_epoch_s = kInf; }),
     "control_epoch_s"},
    {"map_slots_per_node_zero",
     construct([](auto& o) { o.calibration.map_slots_per_node = 0; }),
     "map_slots_per_node"},
    {"reduce_slots_per_node_negative",
     construct([](auto& o) { o.calibration.reduce_slots_per_node = -1; }),
     "reduce_slots_per_node"},
    {"hdfs_replicas_zero",
     construct([](auto& o) { o.calibration.hdfs_replicas = 0; }),
     "hdfs_replicas"},
    {"peak_watts_below_idle",
     construct([](auto& o) { o.calibration.pm_peak_watts = sim::Watts{100}; }),
     "pm_peak_watts"},
    {"task_failure_rate_negative",
     construct([](auto& o) { o.faults.task_failure_rate = -0.1; }),
     "task_failure_rate"},
    {"crash_rate_nan",
     construct([](auto& o) { o.faults.crash_rate = kNaN; }), "crash_rate"},
    {"one_shot_at_negative",
     construct([](auto& o) {
       faults::FaultSpec spec;
       spec.at = -5;
       o.faults.one_shot.push_back(spec);
     }),
     "one_shot.at"},
    {"rate_without_horizon",
     construct([](auto& o) {
       o.faults.task_failure_rate = 0.01;
       o.faults.rate_horizon_s = 0;
     }),
     "rate_horizon_s"},
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

TEST(GoodConfig, EdgeOptionsConstruct) {
  TestBed::Options options;
  options.calibration.pm_peak_watts = options.calibration.pm_idle_watts;
  options.faults.rate_horizon_s = 0;  // no rate stream, so no horizon needed
  faults::FaultSpec spec;
  spec.at = 0;
  options.faults.one_shot.push_back(spec);
  EXPECT_NO_THROW(TestBed{options});
}

}  // namespace
}  // namespace hybridmr::harness
