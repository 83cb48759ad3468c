// hmr_perfbench: the repository benchmark's measuring program.
//
// Runs one of three seeded workloads against the library's public API
// (TestBed, HybridMRScheduler, WhatIfEngine) and prints one JSON object on
// stdout. perfbench/run.py builds this binary, runs it and turns that object
// into the benchmark result line. perfbench/README.md explains the
// workloads, every metric and the noise findings.
//
// A run is a sequence of episodes over K seeded input sets. Each episode
// builds one input set's workload from scratch (set-up, timed) and then
// runs its measured phase (timed). Every repeat of an input set must
// produce the same simulated digest. Host times are the mean over input
// sets of the median over repeats, taken at a reference host speed
// (PacedClock). Episodes repeat until --seconds of host time have passed.
//
// Two clocks, never mixed: host numbers (steady_clock, getrusage) say what
// the simulator costs to run; sim_ numbers say what the modelled data
// center does and repeat exactly for a seed.
//
// With --trace 1 the first sweep over the input sets is traced and the
// repeats are not. Traced episodes turn on the simulation profiler
// (TestBed::Options::profile); per-layer numbers come from them, end-to-end
// numbers only from untraced ones, and their ratio is the trace overhead.
// Spans around every public call the benchmark makes are kept in memory and
// written at exit.
//
// Usage: hmr_perfbench --workload batch-wide|hybrid-sla|whatif-sweep
//                      --seed N --seconds S [--trace 0|1] [--spans FILE]
//                      [--size full|tiny]
//                      [--inject none|corrupt-digest|child-failure]
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/hybridmr.h"
#include "faults/injector.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "workload/benchmarks.h"
#include "workload/mix.h"

namespace {

using namespace hybridmr;

// The benchmark is the one place where wall-clock time is the measurand;
// nothing inside the simulation ever sees these readings.
using Clock = std::chrono::steady_clock;  // sim-lint: allow(wall-clock)

const Clock::time_point kProcessStart = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kProcessStart)
      .count();
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double process_cpu_seconds() {
  return cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// --- spans ----------------------------------------------------------------

/// One timed call into the library: name, start, end, the enclosing span
/// and the id of the episode it belongs to.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int run = 0;
};

/// In-memory span recorder. Spans nest strictly (one thread), so a span's
/// self time is its duration minus the durations of its direct children.
/// `run` is the episode id shared by every span of one episode.
class Spans {
 public:
  int open(const std::string& name) {
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(),
                      run_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Closes span `id` (the innermost open one); returns its duration in ms.
  double close(int id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
    return 1e-6 * static_cast<double>(spans_[id].end_ns - spans_[id].start_ns);
  }

  void set_run(int run) { run_ = run; }

  /// Writes one JSON object per span, with its self time.
  bool write(const std::string& path) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"self_ns\": %lld, \"parent\": %d, "
                   "\"run\": %d}\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.end_ns - s.start_ns - child_ns[i]),
                   s.parent, s.run);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int run_ = 0;
};

Spans g_spans;

/// RAII span; ms() closes it early and returns the duration.
class SpanGuard {
 public:
  explicit SpanGuard(const std::string& name) : id_(g_spans.open(name)) {}
  ~SpanGuard() {
    if (!closed_) g_spans.close(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  double ms() {
    closed_ = true;
    return g_spans.close(id_);
  }

 private:
  int id_;
  bool closed_ = false;
};

// --- host speed -------------------------------------------------------------

/// A probe pass takes this long, in ms, on the reference host. Host times
/// are reported as they would read there (see PacedClock).
constexpr double kProbeRefMs = 4.0;

/// The host-speed probe: a fixed kernel shaped like the simulator's hot
/// path (a timed event heap, state scattered over a table far larger than
/// L2, short floating-point loops). It never calls the library, so no
/// change to the program moves its pass time; only the speed the shared
/// host gives this process does. Its memory is mapped once, outside the
/// heap, and is not inherited by forked what-if children, so it adds
/// nothing to fork cost; peak_rss_mb() leaves it out.
class SpeedProbe {
  struct Event {
    double time;
    std::uint64_t hits;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time > b.time;
    }
  };

 public:
  static constexpr std::size_t kEvents = 1 << 14;
  static constexpr std::size_t kSlots = 1 << 22;  // 32 MiB of doubles
  static constexpr std::size_t kBytes =
      kEvents * sizeof(Event) + kSlots * sizeof(double);

  SpeedProbe() {
    void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED || madvise(mem, kBytes, MADV_DONTFORK) != 0) {
      std::perror("hmr_perfbench: speed probe memory");
      std::exit(2);
    }
    heap_ = static_cast<Event*>(mem);
    table_ = reinterpret_cast<double*>(heap_ + kEvents);
    std::fill(table_, table_ + kSlots, 0.0);
    for (std::size_t i = 0; i < kEvents; ++i) {
      heap_[i] = {static_cast<double>(next() % 1'000'000), 0};
    }
    std::make_heap(heap_, heap_ + kEvents, Later{});
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;
  ~SpeedProbe() { munmap(heap_, kBytes); }

  /// Runs one pass and returns its wall time in ms.
  double pass_ms() {
    SpanGuard span("host.probe");
    double acc = 0;
    for (int i = 0; i < kSteps; ++i) {
      std::pop_heap(heap_, heap_ + kEvents, Later{});
      Event& ev = heap_[kEvents - 1];
      double& cell = table_[next() & (kSlots - 1)];
      cell = cell * 0.5 + ev.time;
      for (std::size_t j = 0; j < lanes_.size(); ++j) {
        lanes_[j] = std::min(lanes_[j] + cell * 1e-9, ev.time * 0.5 + j);
      }
      acc += lanes_[ev.hits++ % lanes_.size()];
      ev.time += static_cast<double>(next() % 1000);
      std::push_heap(heap_, heap_ + kEvents, Later{});
    }
    sink_ = sink_ + acc;
    return span.ms();
  }

 private:
  static constexpr int kSteps = 10'000;

  std::uint64_t next() {  // xorshift64
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  Event* heap_ = nullptr;
  double* table_ = nullptr;
  std::array<double, 32> lanes_{};
  std::uint64_t rng_ = 88172645463325252ull;
  volatile double sink_ = 0;
};

SpeedProbe& speed_probe() {
  static SpeedProbe probe;
  return probe;
}

/// Times measured work in slices, with a probe pass before each slice and
/// one after the last. This host's speed wanders by 15-25 % over seconds to
/// minutes (perfbench/README.md) and the probe tracks it, so beside the
/// wall time of the slices the clock gives their time at the reference
/// speed: wall × kProbeRefMs / (mean probe pass). A faster or slower
/// program moves that figure in full; a faster or slower host mostly not.
class PacedClock {
 public:
  /// Runs a probe pass, then starts a slice.
  void start() {
    probe();
    t0_ = Clock::now();
  }
  /// Ends the slice started last.
  void stop() {
    wall_s_ += std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  /// Closes the window with the probe pass after the last slice.
  void close() { probe(); }

  [[nodiscard]] double wall_s() const { return wall_s_; }
  [[nodiscard]] double probe_ms() const {
    return passes_ > 0 ? probe_ms_ / passes_ : kProbeRefMs;
  }
  [[nodiscard]] double ref_s() const {
    return wall_s_ * kProbeRefMs / probe_ms();
  }

 private:
  void probe() {
    probe_ms_ += speed_probe().pass_ms();
    ++passes_;
  }

  Clock::time_point t0_;
  double wall_s_ = 0;
  double probe_ms_ = 0;
  int passes_ = 0;
};

// --- configuration --------------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string inject = "none";
  std::string spans_path;
};

// --- per-layer counters ---------------------------------------------------

/// Named work counters read through public accessors. Keys ending in
/// "_max" are high-water marks; every other key is additive, so the
/// measured phase's work is the difference of two readings.
using Counters = std::map<std::string, double>;

Counters read_counters(harness::TestBed& bed, core::HybridMRScheduler* hybrid) {
  Counters c;
  auto& sim = bed.sim();
  c["sim.events"] = static_cast<double>(sim.events_processed());
  c["sim.events_deferred"] = static_cast<double>(sim.events_deferred());
  c["sim.events_cancelled"] = static_cast<double>(sim.events_cancelled());
  c["sim.queue_depth_max"] = static_cast<double>(sim.max_queue_depth());

  double migrations = 0;
  double migration_mb = 0;
  for (const auto& rec : bed.cluster().migrator().history()) {
    if (rec.aborted) continue;
    migrations += 1;
    migration_mb += rec.transferred_mb.value();
  }
  c["cluster.migrations"] = migrations;
  c["cluster.migration_mb"] = migration_mb;
  c["storage.re_replicated_mb"] = bed.hdfs().re_replicated_mb().value();

  auto& mr = bed.mr();
  double killed = 0;
  for (const auto& job : mr.jobs()) {
    for (const auto* tasks : {&job->maps(), &job->reduces()}) {
      for (const auto& task : *tasks) {
        for (const auto& attempt : task->attempts()) {
          if (attempt->killed()) killed += 1;
        }
      }
    }
  }
  c["mapred.speculative_launches"] = mr.speculative_launched();
  c["mapred.killed_attempts"] = killed;
  c["mapred.attempt_failures"] = mr.attempt_failures();
  c["mapred.maps_reexecuted"] = mr.maps_reexecuted();

  if (const faults::FaultInjector* f = bed.faults()) {
    c["faults.crashes"] = f->stats().machine_crashes;
    c["faults.task_failures"] = f->stats().task_failures;
  }
  if (hybrid != nullptr) {
    const auto& ips = hybrid->ips().stats();
    c["core.ips.violations_seen"] = ips.violations_seen;
    c["core.ips.actions"] = ips.throttles + ips.pauses + ips.requeues;
    c["core.ips.vm_migrations"] = ips.vm_migrations;
    c["core.drm.cap_updates"] = hybrid->drm().lifetime_stats().cap_updates;
    double samples = 0;
    for (const auto& app : hybrid->apps()) {
      samples += static_cast<double>(app->response_series().size());
    }
    c["interactive.response_samples"] = samples;
  }

  if (const telemetry::Profiler* p = bed.profiler()) {
    using W = telemetry::WorkCounter;
    auto w = [p](W k) { return static_cast<double>(p->work(k)); };
    c["prof.recomputes"] = w(W::kRecomputeDirect) + w(W::kRecomputeDrain) +
                           w(W::kRecomputeReadBarrier) + w(W::kRecomputeEager);
    c["prof.recompute_read_barrier"] = w(W::kRecomputeReadBarrier);
    c["prof.reschedule_pushed"] = w(W::kReschedulePushed);
    c["prof.reschedule_skipped"] = w(W::kRescheduleSkipped);
    c["prof.reschedule_deferred"] = w(W::kRescheduleDeferred);
    c["prof.drain_passes"] = w(W::kDrainPasses);
    c["prof.dispatch_passes"] = w(W::kDispatchPasses);
    c["prof.tracker_scans"] = w(W::kDispatchTrackerScans);
    c["prof.launches"] = w(W::kDispatchLaunches);
    c["prof.shuffle_transfers"] = w(W::kShuffleTransfers);
    c["prof.hdfs_reads"] = w(W::kHdfsReads);
    c["prof.hdfs_writes"] = w(W::kHdfsWrites);
    c["prof.hdfs_flows"] = w(W::kHdfsFlows);
    using D = telemetry::WorkDist;
    c["prof.fanout_sum"] = static_cast<double>(p->dist(D::kEventFanout).sum());
    c["prof.fanout_count"] =
        static_cast<double>(p->dist(D::kEventFanout).count());
    c["prof.dirty_sum"] = static_cast<double>(p->dist(D::kDirtySetSize).sum());
    c["prof.dirty_count"] =
        static_cast<double>(p->dist(D::kDirtySetSize).count());

    // Scope wall time: total per scope, and self time from the calling-
    // context tree (a node's time minus its children's).
    const auto& names = p->scope_names();
    const auto& wall = p->wall_stats();
    for (std::size_t i = 0; i < names.size() && i < wall.size(); ++i) {
      c["scope." + names[i] + ".ms"] =
          1e-6 * static_cast<double>(wall[i].total_ns);
    }
    const auto& nodes = p->nodes();
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      double self_ns = static_cast<double>(nodes[i].total_ns);
      for (std::size_t child : nodes[i].children) {
        self_ns -= static_cast<double>(nodes[child].total_ns);
      }
      if (nodes[i].scope < names.size()) {
        c["scope." + names[nodes[i].scope] + ".self_ms"] += 1e-6 * self_ns;
      }
    }
  }
  return c;
}

bool is_max_key(const std::string& k) {
  return k.size() > 4 && k.compare(k.size() - 4, 4, "_max") == 0;
}

Counters delta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    d[k] = is_max_key(k) || it == before.end() ? v : v - it->second;
  }
  return d;
}

void accumulate(Counters& into, const Counters& c) {
  for (const auto& [k, v] : c) {
    into[k] = is_max_key(k) ? std::max(into[k], v) : into[k] + v;
  }
}

std::string encode(const Counters& c) {
  std::string out;
  char buf[64];
  for (const auto& [k, v] : c) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += k + "=" + buf + " ";
  }
  return out;
}

Counters decode(const std::string& s) {
  Counters c;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) {
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      c[tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
    }
  }
  return c;
}

// --- episodes ---------------------------------------------------------------

/// Everything one episode measured. Host fields vary run to run; sim
/// fields and the digest must not.
struct Episode {
  bool traced = false;
  int set = 0;
  // Host times at the reference speed (PacedClock), the same as wall
  // times, and the mean probe pass around the measured phase.
  double setup_s = 0;
  double run_s = 0;
  double setup_wall_s = 0;
  double run_wall_s = 0;
  double probe_ms = 0;
  double run_elapsed_s = 0;  // wall time of the whole phase, probes too
  double run_cpu_s = 0;
  void set_setup(const PacedClock& c) {
    setup_s = c.ref_s();
    setup_wall_s = c.wall_s();
  }
  void set_run(const PacedClock& c) {
    run_s = c.ref_s();
    run_wall_s = c.wall_s();
    probe_ms = c.probe_ms();
  }
  // Simulated outcomes.
  std::string digest;
  double sim_makespan_s = 0;
  double sim_mean_jct_s = 0;
  double sim_energy_mj = 0;
  double sim_sla_violation_frac = 0;
  double sim_p95_response_s = 0;
  // Operations.
  int jobs = 0;
  int jobs_failed = 0;  // failed or unfinished at the horizon
  bool stalled = false;
  std::vector<double> scenario_ms;
  std::vector<double> child_run_ms;
  int scenario_failures = 0;
  double child_minflt = 0;
  // Spans (ms) and work counters of the measured phase.
  double build_ms = 0;
  double submit_ms = 0;
  double train_ms = 0;
  double deploy_ms = 0;
  double report_ms = 0;
  std::vector<double> phase1_submit_ms;
  double untrained_submits = 0;
  double profiles = 0;
  Counters work;
};

/// TestBed options of an episode: telemetry off, as in bench_scale; traced
/// episodes turn on the profiler and a watchdog that stops a hung
/// simulation well inside the benchmark's 180-s limit.
harness::TestBed::Options bed_options(std::uint64_t seed, bool traced) {
  harness::TestBed::Options o;
  o.seed = seed;
  o.telemetry = false;
  o.profile = traced;
  if (traced) {
    o.watchdog.wall_budget_s = 120;
    o.watchdog.max_same_time_events = 5'000'000;
  }
  return o;
}

/// Sim-time horizon loop shared by the closed batches: runs until every
/// job finished, the simulation drains, the profiler watchdog stalls, or a
/// host-time budget runs out. Returns false on stall or budget. Each step
/// of kSliceSimS simulated seconds is one slice of `clock`.
constexpr double kSliceSimS = 5.0;

bool run_to_completion(harness::TestBed& bed,
                       const std::vector<mapred::Job*>& jobs,
                       PacedClock& clock) {
  const auto t0 = Clock::now();
  for (;;) {
    bool done = true;
    for (auto* j : jobs) done = done && j->finished();
    if (done) return true;
    if (bed.profiler() != nullptr && bed.profiler()->stalled()) return false;
    if (Clock::now() - t0 > std::chrono::seconds(120)) return false;
    clock.start();
    const std::size_t fired = bed.sim().run_until(bed.sim().now() + kSliceSimS);
    clock.stop();
    if (fired == 0 && bed.sim().pending_events() == 0) return false;
  }
}

/// Adds every job to the digest and returns {makespan, mean JCT}; counts
/// jobs that did not succeed into `e.jobs_failed`.
std::pair<double, double> summarize_jobs(const std::vector<mapred::Job*>& jobs,
                                         Episode& e, std::string& d) {
  double first_submit = 1e300;
  double last_finish = 0;
  double jct_sum = 0;
  for (auto* j : jobs) {
    ++e.jobs;
    if (!j->succeeded()) ++e.jobs_failed;
    first_submit = std::min(first_submit, j->submit_time());
    last_finish = std::max(last_finish, j->finish_time());
    jct_sum += j->jct();
    char buf[160];
    std::snprintf(buf, sizeof(buf), "job %d %s %s %.17g %.17g\n", j->id(),
                  j->spec().name.c_str(), mapred::to_string(j->state()),
                  j->submit_time(), j->finish_time());
    d += buf;
  }
  if (jobs.empty()) return {0, 0};
  return {last_finish - first_submit,
          jct_sum / static_cast<double>(jobs.size())};
}

/// Digest text of a RunReport's simulated content: JCTs, makespan,
/// per-app percentiles, energy and the event count, all at %.17g.
void add_report_digest(std::string& d, const telemetry::RunReport& r,
                       double makespan, double energy_j) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "events %zu cancelled %llu deferred %llu makespan %.17g "
                "energy %.17g\n",
                r.events_processed,
                static_cast<unsigned long long>(r.events_cancelled),
                static_cast<unsigned long long>(r.events_deferred), makespan,
                energy_j);
  d += buf;
  for (const auto& a : r.apps) {
    std::snprintf(buf, sizeof(buf),
                  "app %s %zu %.17g %.17g %.17g %.17g %.17g\n", a.name.c_str(),
                  a.samples, a.mean_s, a.p50_s, a.p95_s, a.p99_s,
                  a.violation_fraction);
    d += buf;
  }
}

// batch-wide: a closed Fig 8-class batch on the scale/96 shape, all jobs
// submitted at t=0, run to completion. Telemetry, Phase II, interactive
// apps and faults are off.
Episode batch_wide(const Config& cfg, std::uint64_t seed, bool traced) {
  Episode e;
  e.traced = traced;
  const int hosts = cfg.tiny ? 8 : 96;
  PacedClock setup_clock;
  setup_clock.start();
  SpanGuard setup("setup");
  SpanGuard build("harness.build");
  harness::TestBed bed(bed_options(seed, traced));
  bed.add_virtual_nodes(hosts, /*vms_per_host=*/2);
  e.build_ms = build.ms();

  // One sort, one grep and one wordcount wave per 8 hosts, as in
  // bench_scale, so per-node work stays constant with cluster width.
  std::vector<mapred::Job*> jobs;
  for (int w = 0; w < hosts / 8; ++w) {
    for (const auto& spec : {workload::sort_job().with_input_gb(2.0),
                             workload::dist_grep().with_input_gb(4.0),
                             workload::wcount().with_input_gb(2.0)}) {
      SpanGuard submit("mapred.submit");
      jobs.push_back(bed.mr().submit(spec));
      e.submit_ms += submit.ms();
    }
  }
  setup.ms();
  setup_clock.stop();
  setup_clock.close();
  e.set_setup(setup_clock);

  const Counters before = read_counters(bed, nullptr);
  const double cpu0 = process_cpu_seconds();
  PacedClock clock;
  SpanGuard run("run");
  e.stalled = !run_to_completion(bed, jobs, clock);
  telemetry::RunReport report;
  clock.start();
  {
    SpanGuard s("telemetry.report");
    report = bed.report();
    e.report_ms = s.ms();
  }
  clock.stop();
  clock.close();
  e.run_elapsed_s = run.ms() / 1000;
  e.run_cpu_s = process_cpu_seconds() - cpu0;
  e.set_run(clock);
  e.work = delta(before, read_counters(bed, nullptr));

  std::string d;
  std::tie(e.sim_makespan_s, e.sim_mean_jct_s) = summarize_jobs(jobs, e, d);
  // Submits are at t=0, so the makespan ends at the last finish.
  const double energy_j =
      bed.cluster().energy_joules(0, e.sim_makespan_s).value();
  e.sim_energy_mj = energy_j * 1e-6;
  add_report_digest(d, report, e.sim_makespan_s, energy_j);
  e.digest = hex64(fnv1a(d));
  return e;
}

// hybrid-sla: the paper's 24-PM hybrid testbed under the full HybridMR
// scheduler, fed by a seeded wmix-1 stream (half batch jobs, half
// RUBiS/TPC-W/Olio apps) in simulated time, to a fixed horizon.
Episode hybrid_sla(const Config& cfg, std::uint64_t seed, bool traced) {
  Episode e;
  e.traced = traced;
  const int native = cfg.tiny ? 2 : 12;
  const int vhosts = cfg.tiny ? 2 : 11;
  const double horizon = cfg.tiny ? 900 : 6000;

  auto mix_options = workload::wmix_options(1);
  // Half apps, half jobs: one app per interactive VM.
  mix_options.total_entries = cfg.tiny ? 4 : 2 * vhosts;
  mix_options.horizon_s = cfg.tiny ? 100 : 1200;
  mix_options.batch_input_scale = cfg.tiny ? 0.1 : 0.5;
  sim::Rng mix_rng(seed);
  const auto entries = workload::make_mix(mix_rng, mix_options);

  PacedClock setup_clock;
  setup_clock.start();
  SpanGuard setup("setup");
  SpanGuard build("harness.build");
  harness::TestBed bed(bed_options(seed, traced));
  bed.add_native_nodes(native);
  bed.add_virtual_nodes(vhosts, /*vms_per_host=*/2);
  // One interactive VM per virtual host, beside its two Hadoop VMs, and a
  // spare empty machine as a migration target for the IPS.
  std::vector<cluster::ExecutionSite*> app_vms;
  for (const auto& m : bed.cluster().machines()) {
    if (m->name().rfind("vhost", 0) == 0) {
      app_vms.push_back(bed.add_plain_vm(*m));
    }
  }
  bed.add_plain_machines(1);
  e.build_ms = build.ms();

  core::HybridMROptions options;
  options.phase1.native_cluster_size = native;
  options.phase1.virtual_cluster_size = 2 * vhosts;
  core::HybridMRScheduler hybrid(bed.sim(), bed.cluster(), bed.hdfs(),
                                 bed.mr(), options);
  // Users pay Phase I training once per job type; set-up pays it here so
  // the measured phase never trains.
  {
    SpanGuard train("core.phase1.train");
    std::set<std::string> trained;
    for (const auto& entry : entries) {
      if (entry.is_batch && trained.insert(entry.job.name).second) {
        hybrid.phase1().ensure_trained(entry.job);
      }
    }
    e.train_ms = train.ms();
  }
  hybrid.start();

  std::vector<mapred::Job*> jobs;
  std::vector<interactive::InteractiveApp*> apps;
  auto& db = hybrid.profiler().database();
  for (const auto& entry : entries) {
    bed.sim().at(entry.arrival_s, [&, entry] {
      if (entry.is_batch) {
        const std::size_t profiles = db.size();
        SpanGuard submit("core.phase1.submit");
        jobs.push_back(hybrid.submit(entry.job));
        e.phase1_submit_ms.push_back(submit.ms());
        if (db.size() != profiles) e.untrained_submits += 1;
      } else {
        SpanGuard deploy("interactive.deploy");
        apps.push_back(&hybrid.deploy_interactive(
            entry.app, entry.clients, app_vms[apps.size() % app_vms.size()]));
        e.deploy_ms += deploy.ms();
      }
    });
  }
  e.profiles = static_cast<double>(db.size());
  setup.ms();
  setup_clock.stop();
  setup_clock.close();
  e.set_setup(setup_clock);

  const Counters before = read_counters(bed, &hybrid);
  const double cpu0 = process_cpu_seconds();
  PacedClock clock;
  SpanGuard run("run");
  for (double t = bed.sim().now(); t < horizon;) {
    t = std::min(t + 20 * kSliceSimS, horizon);
    clock.start();
    bed.run_until(t);
    clock.stop();
    if (bed.profiler() != nullptr && bed.profiler()->stalled()) break;
  }
  std::vector<const interactive::InteractiveApp*> app_view(apps.begin(),
                                                           apps.end());
  telemetry::RunReport report;
  clock.start();
  {
    SpanGuard s("telemetry.report");
    report = bed.report(app_view);
    e.report_ms = s.ms();
  }
  clock.stop();
  clock.close();
  e.run_elapsed_s = run.ms() / 1000;
  e.run_cpu_s = process_cpu_seconds() - cpu0;
  e.set_run(clock);
  e.work = delta(before, read_counters(bed, &hybrid));
  e.stalled = bed.profiler() != nullptr && bed.profiler()->stalled();

  std::string d;
  std::tie(e.sim_makespan_s, e.sim_mean_jct_s) = summarize_jobs(jobs, e, d);
  // Entries that never arrived count as failed jobs.
  for (const auto& entry : entries) {
    if (entry.is_batch && entry.arrival_s >= horizon) {
      ++e.jobs;
      ++e.jobs_failed;
    }
  }
  const double energy_j = bed.cluster().energy_joules(0, horizon).value();
  e.sim_energy_mj = energy_j * 1e-6;

  // SLA outcome pooled over every response sample of every app.
  std::vector<double> responses;
  double violations = 0;
  for (const auto* app : apps) {
    for (double v : app->response_series().values()) {
      responses.push_back(v);
      if (sim::Duration{v} > app->params().sla_s) violations += 1;
    }
  }
  e.sim_sla_violation_frac =
      responses.empty() ? 0 : violations / static_cast<double>(responses.size());
  e.sim_p95_response_s = percentile(responses, 95);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "sla %.17g p95 %.17g\n",
                e.sim_sla_violation_frac, e.sim_p95_response_s);
  d += buf;
  add_report_digest(d, report, e.sim_makespan_s, energy_j);
  e.digest = hex64(fnv1a(d));

  hybrid.stop();
  for (auto* a : apps) a->stop();
  return e;
}

// whatif-sweep: bench_whatif's capacity planner. Set-up warms a 24-host
// engine mid-chaos; the measured phase forks `scenarios` perturbed
// what-if scenarios one at a time, each running a 30-s horizon.
constexpr double kWarmUntil = 240.0;
constexpr double kHorizon = 30.0;

struct WhatIfEngine {
  WhatIfEngine(std::uint64_t seed, bool traced) {
    harness::TestBed::Options o = bed_options(seed, traced);
    o.calibration.hdfs_replicas = 3;
    o.faults.one_shot.push_back({faults::FaultSpec::Kind::kMachineCrash,
                                 /*at=*/30.0, "vhost1", sim::Duration{60.0}});
    o.faults.task_failure_rate = 0.02;
    o.faults.rate_horizon_s = 400;
    o.faults.seed = seed ^ 0x9e3779b9;
    SpanGuard build("harness.build");
    bed = std::make_unique<harness::TestBed>(o);
    sites = bed->add_virtual_nodes(/*hosts=*/24, /*vms_per_host=*/2);
    build_ms = build.ms();

    core::HybridMROptions options;
    options.enable_phase1 = false;
    hybrid = std::make_unique<core::HybridMRScheduler>(
        bed->sim(), bed->cluster(), bed->hdfs(), bed->mr(), options);
    hybrid->start();
    SpanGuard deploy("interactive.deploy");
    hybrid->deploy_interactive(interactive::olio_params(), 1100, sites[0]);
    deploy_ms = deploy.ms();
    for (int w = 0; w < 3; ++w) {
      for (const auto& spec : {workload::sort_job().with_input_gb(2.0),
                               workload::dist_grep().with_input_gb(4.0),
                               workload::wcount().with_input_gb(2.0)}) {
        SpanGuard submit("mapred.submit");
        bed->mr().submit(spec);
        submit_ms += submit.ms();
      }
    }
    bed->run_until(kWarmUntil);
  }

  /// One capacity-planning scenario perturbed by its index: crash a
  /// machine, inject an extra job, run the horizon, report the outcome.
  /// Runs identically in a forked child and in a cold replica.
  std::string scenario(int i) {
    const int victim = 1 + i % 5;  // vhost1..vhost5 (vhost0 hosts the app)
    const double crash_at = bed->sim().now() + 2.0 + (i % 4);
    if (bed->faults() != nullptr && i % 7 != 0) {
      auto* m = bed->cluster().machine("vhost" + std::to_string(victim));
      bed->sim().at(crash_at, [this, m] {
        if (m != nullptr) bed->faults()->crash_machine(*m, sim::Duration{40.0});
      });
    }
    switch (i % 3) {
      case 0: bed->mr().submit(workload::sort_job().with_input_gb(0.5)); break;
      case 1: bed->mr().submit(workload::pi_est()); break;
      default: break;
    }
    bed->run_until(bed->sim().now() + kHorizon);

    double done = 0;
    double makespan = 0;
    double jct_sum = 0;
    int finished = 0;
    for (const auto& job : bed->mr().jobs()) {
      done += job->maps_done() + job->reduces_done();
      if (job->finished()) {
        ++finished;
        jct_sum += job->jct();
        makespan = std::max(makespan, job->finish_time());
      }
    }
    const double energy_j =
        bed->cluster().energy_joules(0, bed->sim().now()).value();
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "i=%d done=%.17g finished=%d makespan=%.17g jct=%.17g "
                  "energy=%.17g resp=%.17g events=%zu",
                  i, done, finished, makespan,
                  finished > 0 ? jct_sum / finished : 0.0, energy_j,
                  hybrid->apps().front()->response_time_s(),
                  bed->sim().events_processed());
    return buf;
  }

  std::unique_ptr<harness::TestBed> bed;
  std::unique_ptr<core::HybridMRScheduler> hybrid;
  std::vector<cluster::ExecutionSite*> sites;
  double build_ms = 0;
  double deploy_ms = 0;
  double submit_ms = 0;
};

double field(const std::string& payload, const char* key) {
  const std::string k = std::string(" ") + key + "=";
  const auto pos = (" " + payload).find(k);
  if (pos == std::string::npos) return 0;
  return std::strtod(payload.c_str() + pos + k.size() - 1, nullptr);
}

int scenario_count(const Config& cfg) { return cfg.tiny ? 6 : 120; }
constexpr int kScenariosPerSlice = 8;

// The child's reply: the deterministic payload, then (after a newline) the
// host-side channel with the child's own run time and work counters.
constexpr char kSideChannel = '\n';

Episode whatif_sweep(const Config& cfg, std::uint64_t seed, bool traced,
                     std::vector<std::string>& payloads) {
  Episode e;
  e.traced = traced;
  PacedClock setup_clock;
  setup_clock.start();
  SpanGuard setup("setup");
  WhatIfEngine engine(seed, traced);
  e.build_ms = engine.build_ms;
  e.deploy_ms = engine.deploy_ms;
  e.submit_ms = engine.submit_ms;
  auto& planner = engine.bed->whatif();
  setup.ms();
  setup_clock.stop();
  setup_clock.close();
  e.set_setup(setup_clock);

  const int n = scenario_count(cfg);
  payloads.assign(static_cast<std::size_t>(n), "");
  rusage ru0{};
  getrusage(RUSAGE_CHILDREN, &ru0);
  const double cpu0 = process_cpu_seconds();
  PacedClock clock;
  SpanGuard run("run");
  std::uint64_t sweep = 1469598103934665603ull;
  double makespan_sum = 0;
  double jct_sum = 0;
  double energy_sum = 0;
  for (int i = 0; i < n; ++i) {
    // A slice is kScenariosPerSlice scenarios.
    if (i % kScenariosPerSlice == 0) {
      if (i > 0) clock.stop();
      clock.start();
    }
    const bool inject_failure = cfg.inject == "child-failure" && i == n / 2;
    SpanGuard span("whatif.scenario");
    const whatif::ForkResult r = planner.run_isolated([&engine, i,
                                                       inject_failure] {
      if (inject_failure) std::_Exit(3);
      const auto t0 = Clock::now();
      const Counters before = read_counters(*engine.bed, engine.hybrid.get());
      std::string out = engine.scenario(i);
      const Counters work =
          delta(before, read_counters(*engine.bed, engine.hybrid.get()));
      char buf[64];
      std::snprintf(
          buf, sizeof(buf), "child_ms=%.17g ",
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
      return out + kSideChannel + buf + encode(work);
    });
    e.scenario_ms.push_back(span.ms());
    const auto cut = r.payload.find(kSideChannel);
    const std::string payload = r.payload.substr(0, cut);
    payloads[static_cast<std::size_t>(i)] = payload;
    if (!r.ok || cut == std::string::npos) {
      ++e.scenario_failures;
      continue;
    }
    Counters side = decode(r.payload.substr(cut + 1));
    e.child_run_ms.push_back(side["child_ms"]);
    side.erase("child_ms");
    accumulate(e.work, side);
    sweep = fnv1a(payload, sweep);
    makespan_sum += field(payload, "makespan");
    jct_sum += field(payload, "jct");
    energy_sum += field(payload, "energy");
  }
  clock.stop();
  clock.close();
  e.run_elapsed_s = run.ms() / 1000;
  e.run_cpu_s = process_cpu_seconds() - cpu0;
  e.set_run(clock);
  rusage ru1{};
  getrusage(RUSAGE_CHILDREN, &ru1);
  e.child_minflt = static_cast<double>(ru1.ru_minflt - ru0.ru_minflt);
  {
    SpanGuard s("telemetry.report");
    const telemetry::RunReport report = engine.bed->report();
    e.report_ms = s.ms();
  }

  const double ok = std::max(1, n - e.scenario_failures);
  e.sim_makespan_s = makespan_sum / ok;
  e.sim_mean_jct_s = jct_sum / ok;
  e.sim_energy_mj = energy_sum / ok * 1e-6;
  e.digest = hex64(sweep);
  return e;
}

/// Fork-fidelity check (docs/WHATIF.md): a sampled scenario replayed on a
/// cold rebuild of the engine must reproduce the forked payload byte for
/// byte. Returns the cold replay times; `mismatches` counts failures.
std::vector<double> cold_replays(std::uint64_t seed,
                                 const std::vector<std::string>& forked,
                                 int& mismatches) {
  std::vector<double> ms;
  const int n = static_cast<int>(forked.size());
  for (int k = 0; k < 3; ++k) {
    const int i = static_cast<int>((seed * 7 + 41 * k) % n);
    SpanGuard span("whatif.cold_replay");
    WhatIfEngine replica(seed, /*traced=*/false);
    const std::string payload = replica.scenario(i);
    ms.push_back(span.ms());
    if (payload != forked[static_cast<std::size_t>(i)]) ++mismatches;
  }
  return ms;
}

// --- output ---------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    char buf[96];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// High-water RSS of this process image, less the speed probe's memory
/// (resident from the first pass on). Read from /proc (VmHWM) rather than
/// getrusage: ru_maxrss survives execve, so it would report the launching
/// process's peak when that was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return (kib * 1024.0 - static_cast<double>(SpeedProbe::kBytes)) /
         (1024.0 * 1024.0);
}

int usage() {
  std::fprintf(stderr,
               "usage: hmr_perfbench --workload batch-wide|hybrid-sla|"
               "whatif-sweep --seed N --seconds S [--trace 0|1] "
               "[--spans FILE] [--size full|tiny] "
               "[--inject none|corrupt-digest|child-failure]\n");
  return 2;
}

/// Independently seeded instances of the workload in a run. Averaging the
/// simulated outcomes and host times over many input sets keeps them from
/// hinging on one seed's luck (one batch-wide input set can cost 15 % more
/// host time than another); the count never depends on host speed, so the
/// sim_ metrics repeat exactly for a seed.
int input_sets(const Config& cfg) {
  if (cfg.tiny) return 2;
  if (cfg.workload == "batch-wide") return 16;
  return cfg.workload == "whatif-sweep" ? 16 : 8;
}

/// Seed of input set `k` of a run seeded with `seed` (splitmix64).
std::uint64_t set_seed(std::uint64_t seed, int k) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(k);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Mean over input sets of the median over that set's repeats: the host
/// time of one input set, insensitive to a slow repeat.
double mean_of_set_medians(const std::vector<Episode>& episodes, bool traced,
                           const std::function<double(const Episode&)>& get) {
  std::map<int, std::vector<double>> by_set;
  for (const auto& e : episodes) {
    if (e.traced == traced) by_set[e.set].push_back(get(e));
  }
  double sum = 0;
  for (const auto& [set, v] : by_set) sum += median(v);
  return by_set.empty() ? 0 : sum / static_cast<double>(by_set.size());
}

bool parse(int argc, char** argv, Config& cfg) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = v == "batch-wide" || v == "hybrid-sla" ||
                      v == "whatif-sweep";
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = !v.empty() && *end == '\0' && v[0] != '-';
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      have_seconds = !v.empty() && *end == '\0' && cfg.seconds > 0 &&
                     cfg.seconds <= 120;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      cfg.trace = v == "1";
    } else if (a == "--spans") {
      cfg.spans_path = v;
    } else if (a == "--size") {
      if (v != "full" && v != "tiny") return false;
      cfg.tiny = v == "tiny";
    } else if (a == "--inject") {
      if (v != "none" && v != "corrupt-digest" && v != "child-failure") {
        return false;
      }
      cfg.inject = v;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!parse(argc, argv, cfg)) return usage();
  const bool whatif = cfg.workload == "whatif-sweep";
  const int sets = input_sets(cfg);

  // A run first sweeps every input set once (traced with --trace 1), then
  // repeats sets 0, 1, ... untraced until the episode ending nearest to
  // --seconds, at least one, so some set's digest is seen twice and, with
  // --trace 1, both traced and untraced.
  std::vector<Episode> episodes;
  std::vector<std::string> first_payloads;
  const auto t0 = Clock::now();
  for (int i = 0; i < 1000; ++i) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (i > sets && elapsed + 0.5 * elapsed / i >= cfg.seconds) break;
    const int k = i % sets;
    const bool traced = cfg.trace && i < sets;
    g_spans.set_run(i);
    const std::uint64_t seed = set_seed(cfg.seed, k);
    std::vector<std::string> payloads;
    Episode e = cfg.workload == "batch-wide" ? batch_wide(cfg, seed, traced)
                : whatif ? whatif_sweep(cfg, seed, traced, payloads)
                         : hybrid_sla(cfg, seed, traced);
    e.set = k;
    std::fprintf(stderr,
                 "episode %d set %d%s: setup_s %.6f run_s %.6f "
                 "(wall %.6f s, probe %.4f ms)\n",
                 i, k, traced ? " traced" : "", e.setup_s, e.run_s,
                 e.run_wall_s, e.probe_ms);
    if (first_payloads.empty()) first_payloads = payloads;
    episodes.push_back(std::move(e));
  }
  if (cfg.inject == "corrupt-digest") episodes.back().digest[0] ^= 1;

  // --- checks and operations ----------------------------------------------
  std::vector<Check> checks;
  std::string digest_text;
  for (int k = 0; k < sets; ++k) digest_text += episodes[k].digest;
  const std::string digest = hex64(fnv1a(digest_text));
  {
    Check c{"digest_repeats", true, ""};
    for (const auto& e : episodes) {
      if (e.digest != episodes[e.set].digest) {
        c.ok = false;
        c.detail = "input set " + std::to_string(e.set) + ": " + e.digest +
                   (e.traced ? " (traced)" : "") + " != " +
                   episodes[e.set].digest;
      }
    }
    checks.push_back(c);
  }

  // Operations: every job submitted and every forked scenario.
  long attempted = 0;
  long failed = 0;
  int scenario_failures = 0;
  for (const auto& e : episodes) {
    attempted += e.jobs + static_cast<long>(e.scenario_ms.size());
    failed += e.jobs_failed + e.scenario_failures;
    scenario_failures += e.scenario_failures;
  }
  if (!whatif) {
    Check c{"jobs_finish", true, ""};
    for (const auto& e : episodes) {
      if (e.jobs == 0 || e.jobs_failed > 0 || e.stalled) {
        c.ok = false;
        c.detail = "input set " + std::to_string(e.set) + ": " +
                   std::to_string(e.jobs_failed) + " of " +
                   std::to_string(e.jobs) + " jobs unfinished or failed" +
                   (e.stalled ? ", watchdog stall" : "");
      }
    }
    checks.push_back(c);
  }
  if (cfg.workload == "hybrid-sla") {
    Check c{"phase1_trained_in_setup", true, ""};
    for (const auto& e : episodes) {
      if (e.untrained_submits > 0) {
        c.ok = false;
        c.detail = "a measured-phase submit trained Phase I";
      }
    }
    checks.push_back(c);
  }
  std::vector<double> cold_ms;
  if (whatif) {
    checks.push_back({"scenarios_ok", scenario_failures == 0,
                      std::to_string(scenario_failures) + " child failures"});
    int mismatches = 0;
    cold_ms = cold_replays(set_seed(cfg.seed, 0), first_payloads, mismatches);
    attempted += static_cast<long>(cold_ms.size());
    failed += mismatches;
    checks.push_back({"fork_fidelity", mismatches == 0,
                      std::to_string(mismatches) + " of " +
                          std::to_string(cold_ms.size()) +
                          " cold replays differ from the forked payload"});
  }

  // --- end-to-end metrics: untraced episodes only -------------------------
  std::vector<double> scenario_ms;
  std::vector<double> child_ms;
  std::vector<double> fork_overhead_ms;
  double cpu_s = 0;
  double wall_s = 0;
  double minflt = 0;
  for (const auto& e : episodes) {
    if (e.traced) continue;
    cpu_s += e.run_cpu_s;
    wall_s += e.run_elapsed_s;
    minflt += e.child_minflt;
    scenario_ms.insert(scenario_ms.end(), e.scenario_ms.begin(),
                       e.scenario_ms.end());
    child_ms.insert(child_ms.end(), e.child_run_ms.begin(),
                    e.child_run_ms.end());
    if (e.child_run_ms.size() == e.scenario_ms.size()) {
      for (std::size_t i = 0; i < e.scenario_ms.size(); ++i) {
        fork_overhead_ms.push_back(e.scenario_ms[i] - e.child_run_ms[i]);
      }
    }
  }
  const double run_s = mean_of_set_medians(
      episodes, false, [](const Episode& e) { return e.run_s; });
  // Simulated outcomes: mean over the input sets of the first sweep (every
  // repeat reproduces them; digest_repeats holds it to that).
  auto sim_mean = [&](double Episode::*field) {
    double sum = 0;
    for (int k = 0; k < sets; ++k) sum += episodes[k].*field;
    return sum / sets;
  };
  MetricSet e2e;
  e2e.add("setup_s",
          mean_of_set_medians(episodes, false,
                              [](const Episode& e) { return e.setup_s; }),
          "s");
  e2e.add("run_s", run_s, "s");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  e2e.add("sim_makespan_s", sim_mean(&Episode::sim_makespan_s), "s");
  e2e.add("sim_mean_jct_s", sim_mean(&Episode::sim_mean_jct_s), "s");
  e2e.add("sim_energy_mj", sim_mean(&Episode::sim_energy_mj), "MJ");

  // Workload-specific outcomes, printed in every run.
  MetricSet extra;
  if (whatif) {
    extra.add("scenario_ms_p50", percentile(scenario_ms, 50), "ms");
    extra.add("scenario_ms_p90", percentile(scenario_ms, 90), "ms");
    extra.add("scenario_samples", static_cast<double>(scenario_ms.size()),
              "count");
  }
  if (cfg.workload == "hybrid-sla") {
    extra.add("sim_sla_violation_frac",
              sim_mean(&Episode::sim_sla_violation_frac), "1");
    extra.add("sim_p95_response_s", sim_mean(&Episode::sim_p95_response_s),
              "s");
  }
  extra.add("host.cpu_frac", wall_s > 0 ? cpu_s / wall_s : 0, "1");
  auto untraced = [&episodes](double Episode::*field) {
    return mean_of_set_medians(episodes, false,
                               [field](const Episode& e) { return e.*field; });
  };
  extra.add("host.setup_wall_s", untraced(&Episode::setup_wall_s), "s");
  extra.add("host.run_wall_s", untraced(&Episode::run_wall_s), "s");
  extra.add("host.probe_ms", untraced(&Episode::probe_ms), "ms");

  // --- per-layer metrics: traced episodes (spans, scopes, counters) -------
  MetricSet layer;
  if (cfg.trace) {
    // Every traced episode's spans and work counters; a metric is the mean
    // over input sets of the median over traced repeats (counters repeat
    // exactly, so for them this is the mean over sets).
    std::map<std::string, std::map<int, std::vector<double>>> samples;
    for (std::size_t i = 0; i < episodes.size(); ++i) {
      const Episode& e = episodes[i];
      if (!e.traced) continue;
      auto put = [&samples, &e](const std::string& n, double v) {
        samples[n][e.set].push_back(v);
      };
      for (const auto& [name, v] : e.work) put(name, v);
      put("harness.build_ms", e.build_ms);
      put("mapred.submit_ms", e.submit_ms);
      put("core.phase1.train_ms", e.train_ms);
      put("interactive.deploy_ms", e.deploy_ms);
      put("telemetry.report_ms", e.report_ms);
      put("core.phase1.submit_ms_p50", percentile(e.phase1_submit_ms, 50));
      put("core.phase1.submit_ms_max", percentile(e.phase1_submit_ms, 100));
      put("core.phase1.untrained_submits", e.untrained_submits);
      put("core.phase1.profiles", e.profiles);
    }
    auto m = [&samples](const std::string& n) {
      const auto it = samples.find(n);
      if (it == samples.end()) return 0.0;
      double sum = 0;
      for (const auto& [set, v] : it->second) sum += median(v);
      return sum / static_cast<double>(it->second.size());
    };
    auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    // Trace overhead and host time per event from the sets run both
    // traced and untraced, so both sides cover the same inputs.
    std::map<int, std::vector<double>> untraced_s;
    std::map<int, std::vector<double>> traced_s;
    for (const auto& e : episodes) {
      (e.traced ? traced_s : untraced_s)[e.set].push_back(e.run_s);
    }
    double both_untraced_s = 0;
    double both_traced_s = 0;
    double both_events = 0;
    for (const auto& [set, v] : untraced_s) {
      const auto it = traced_s.find(set);
      if (it == traced_s.end()) continue;
      both_untraced_s += median(v);
      both_traced_s += median(it->second);
      both_events += median(samples["sim.events"][set]);
    }
    const double recomputes = m("prof.recomputes");
    const double reschedules = m("prof.reschedule_pushed") +
                               m("prof.reschedule_skipped") +
                               m("prof.reschedule_deferred");
    const double transfers = m("prof.shuffle_transfers") +
                             m("prof.hdfs_reads") + m("prof.hdfs_writes");
    const double scenarios = static_cast<double>(scenario_ms.size());
    layer.add("harness.build_ms", m("harness.build_ms"), "ms");
    layer.add("sim.events", m("sim.events"), "count");
    layer.add("sim.events_deferred", m("sim.events_deferred"), "count");
    layer.add("sim.events_cancelled", m("sim.events_cancelled"), "count");
    layer.add("sim.queue_depth_max", m("sim.queue_depth_max"), "count");
    layer.add("sim.host_us_per_event",
              1e6 * ratio(both_untraced_s, both_events), "us");
    layer.add("sim.event_fanout_mean",
              ratio(m("prof.fanout_sum"), m("prof.fanout_count")), "count");
    layer.add("sim.event.self_ms", m("scope.sim.event.self_ms"), "ms");
    layer.add("cluster.recompute_ms", m("scope.cluster.machine.recompute.ms"),
              "ms");
    layer.add("cluster.realloc.drain.self_ms",
              m("scope.cluster.realloc.drain.self_ms"), "ms");
    layer.add("cluster.recomputes", recomputes, "count");
    layer.add("cluster.recomputes_per_event",
              ratio(recomputes, m("sim.events")), "1");
    layer.add("cluster.read_barrier_frac",
              ratio(m("prof.recompute_read_barrier"), recomputes), "1");
    layer.add("cluster.dirty_set_mean",
              ratio(m("prof.dirty_sum"), m("prof.dirty_count")), "count");
    layer.add("cluster.drain_passes", m("prof.drain_passes"), "count");
    layer.add("cluster.reschedule_skip_frac",
              ratio(m("prof.reschedule_skipped"), reschedules), "1");
    layer.add("cluster.migrations", m("cluster.migrations"), "count");
    layer.add("cluster.migration_mb", m("cluster.migration_mb"), "MB");
    layer.add("storage.flow_setup_ms", m("scope.storage.flow_setup.ms"), "ms");
    layer.add("storage.flows", m("prof.hdfs_flows"), "count");
    layer.add("storage.shuffle_transfers", m("prof.shuffle_transfers"),
              "count");
    layer.add("storage.hdfs_reads", m("prof.hdfs_reads"), "count");
    layer.add("storage.hdfs_writes", m("prof.hdfs_writes"), "count");
    layer.add("storage.flows_per_transfer",
              ratio(m("prof.hdfs_flows"), transfers), "1");
    layer.add("storage.re_replicated_mb", m("storage.re_replicated_mb"), "MB");
    layer.add("mapred.submit_ms", m("mapred.submit_ms"), "ms");
    layer.add("mapred.dispatch_ms", m("scope.mapred.dispatch.ms"), "ms");
    layer.add("mapred.speculation_scan_ms",
              m("scope.mapred.speculation_scan.ms"), "ms");
    layer.add("mapred.dispatch_passes", m("prof.dispatch_passes"), "count");
    layer.add("mapred.tracker_scans", m("prof.tracker_scans"), "count");
    layer.add("mapred.launches", m("prof.launches"), "count");
    layer.add("mapred.launch_frac",
              ratio(m("prof.launches"), m("prof.tracker_scans")), "1");
    layer.add("mapred.speculative_launches", m("mapred.speculative_launches"),
              "count");
    layer.add("mapred.speculative_kill_frac",
              ratio(m("mapred.killed_attempts"),
                    m("mapred.speculative_launches")),
              "1");
    layer.add("mapred.attempt_failures", m("mapred.attempt_failures"),
              "count");
    layer.add("mapred.maps_reexecuted", m("mapred.maps_reexecuted"), "count");
    layer.add("interactive.deploy_ms", m("interactive.deploy_ms"), "ms");
    layer.add("interactive.response_samples",
              m("interactive.response_samples"), "count");
    layer.add("core.phase1.train_ms", m("core.phase1.train_ms"), "ms");
    layer.add("core.phase1.profiles", m("core.phase1.profiles"), "count");
    layer.add("core.phase1.submit_ms_p50", m("core.phase1.submit_ms_p50"),
              "ms");
    layer.add("core.phase1.submit_ms_max", m("core.phase1.submit_ms_max"),
              "ms");
    layer.add("core.phase1.untrained_submits",
              m("core.phase1.untrained_submits"), "count");
    layer.add("core.ips.violations_seen", m("core.ips.violations_seen"),
              "count");
    layer.add("core.ips.actions", m("core.ips.actions"), "count");
    layer.add("core.ips.vm_migrations", m("core.ips.vm_migrations"), "count");
    layer.add("core.drm.cap_updates", m("core.drm.cap_updates"), "count");
    layer.add("faults.crashes", m("faults.crashes"), "count");
    layer.add("faults.task_failures", m("faults.task_failures"), "count");
    layer.add("whatif.child_run_ms_p50", median(child_ms), "ms");
    layer.add("whatif.fork_overhead_ms_p50", median(fork_overhead_ms), "ms");
    layer.add("whatif.child_minflt_per_scenario", ratio(minflt, scenarios),
              "count");
    layer.add("whatif.child_failures", scenario_failures, "count");
    layer.add("whatif.cold_ms_p50", median(cold_ms), "ms");
    layer.add("whatif.cold_over_forked",
              ratio(median(cold_ms), median(scenario_ms)), "1");
    layer.add("telemetry.report_ms", m("telemetry.report_ms"), "ms");
    layer.add("telemetry.trace_overhead_frac",
              ratio(both_traced_s, both_untraced_s) - 1, "1");
    layer.add("host.cpu_frac", ratio(cpu_s, wall_s), "1");
    layer.add("scenario_ms_p50", percentile(scenario_ms, 50), "ms");
    layer.add("scenario_ms_p90", percentile(scenario_ms, 90), "ms");
    layer.add("scenario_samples", scenarios, "count");
    layer.add("sim_sla_violation_frac",
              sim_mean(&Episode::sim_sla_violation_frac), "1");
    layer.add("sim_p95_response_s", sim_mean(&Episode::sim_p95_response_s),
              "s");
  }

  if (cfg.trace && !cfg.spans_path.empty() && !g_spans.write(cfg.spans_path)) {
    checks.push_back({"spans_written", false, cfg.spans_path});
  }
  for (const auto& c : checks) {
    ++attempted;
    if (!c.ok) ++failed;
  }

  std::string checks_json = "[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    checks_json += std::string(i ? ", " : "") + "{\"name\": \"" +
                   checks[i].name + "\", \"ok\": " +
                   (checks[i].ok ? "true" : "false") + ", \"detail\": \"" +
                   json_escape(checks[i].detail) + "\"}";
  }
  checks_json += "]";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\", "
      "\"input_sets\": %d, \"episodes\": %zu, \"digest\": \"%s\", "
      "\"attempted\": %ld, \"failed\": %ld, \"checks\": %s, "
      "\"end_to_end\": %s, \"per_layer\": %s, \"extra\": %s}\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.tiny ? "tiny" : "full", sets, episodes.size(), digest.c_str(),
      attempted, failed, checks_json.c_str(), e2e.json().c_str(),
      layer.json().c_str(), extra.json().c_str());
  return failed == 0 ? 0 : 1;
}
