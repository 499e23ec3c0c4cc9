// perfbench: the simulator benchmark.
//
// One process runs one named workload (a workload spec under
// perfbench/workloads/) and measures the simulator from outside, through
// its public API only:
//
//   --trace 0  the end-to-end run.  Set-up (spec -> validated config ->
//              trial 0's constructed ReliabilitySimulator) is repeated and
//              its median reported; then core::run_monte_carlo runs the
//              workload's fixed trial count on a thread pool, repeatedly,
//              for --seconds, and the median call is reported.
//   --trace 1  the per-layer run.  One pooled run captures every trial's
//              result; each trial is then replayed single-threaded, once
//              untraced and once with spans (see traced_run.hpp), and the
//              layout, target-selection and placement calls are replayed on
//              trial 0's post-layout state.
//
// Every run checks its outputs: the invariant layer on each pooled call,
// identical results across repeated calls, the result digest against the
// stored reference at the reference seed, and (traced) per-trial equality
// with the pooled run.  The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; a failed check still prints
// it and exits 1.  An exception, such as a trial that throws, ends the run
// with exit 1 and no result line.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "farm/monte_carlo.hpp"
#include "farm/reliability_sim.hpp"
#include "farm/storage_system.hpp"
#include "farm/target_selector.hpp"
#include "trial_hash.hpp"
#include "traced_run.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"
#include "workload/invariants.hpp"
#include "workload/spec.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using farm::core::MonteCarloResult;
using farm::core::SystemConfig;
using farm::core::TrialResult;
using perfbench::EventClass;

// Set-up is timed in samples of one or more back-to-back set-ups lasting
// about kSetupSampleSeconds, after one untimed calibration set-up, until
// kMinSetupSamples samples and kSetupSeconds have passed (at most
// kMaxSetupSamples); the median sample, per set-up, is reported.  A large
// system sets up in a second, the client testbed in under a millisecond,
// where single timings swing by half with scheduling and cache state.
constexpr double kSetupSampleSeconds = 0.05;
constexpr double kSetupSeconds = 2.0;
constexpr std::size_t kMinSetupSamples = 3;
constexpr std::size_t kMaxSetupSamples = 201;
// The pooled run is repeated at least this often, however short --seconds.
constexpr std::size_t kMinTimedRepeats = 3;
// Replay sample sizes for the per-layer call costs.
constexpr std::size_t kSelectSamples = 20000;
constexpr std::size_t kCandidateSamples = 500000;
constexpr std::uint32_t kCandidateRanks = 64;

// The pooled run uses every hardware thread, up to four.
std::size_t pool_width() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 0.0;
  int trace = -1;
  double scale = 1.0;
  std::string bench_dir = "perfbench";
  std::string spec_path;        // default: <bench_dir>/workloads/<workload>.json
  std::string references_path;  // default: <bench_dir>/reference_digests.json
  std::string trace_out;        // Chrome trace file, --trace 1 only
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--scale X] [--bench-dir DIR] [--spec FILE]\n"
               "                 [--references FILE] [--trace-out FILE]\n"
               "NAME is a spec in <bench-dir>/workloads/NAME.json\n";
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    usage(flag + " expects a number, got '" + text + "'");
  }
  if (used != text.size()) usage(flag + " expects a number, got '" + text + "'");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      std::size_t used = 0;
      try {
        a.seed = std::stoull(v, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (v.empty() || v[0] == '-' || used != v.size()) {
        usage("--seed expects an integer in [0, 2^64), got '" + v + "'");
      }
      a.have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_number(flag, v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--scale") {
      a.scale = parse_number(flag, v);
    } else if (flag == "--bench-dir") {
      a.bench_dir = v;
    } else if (flag == "--spec") {
      a.spec_path = v;
    } else if (flag == "--references") {
      a.references_path = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!a.have_seed) usage("--seed is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace < 0) usage("--trace is required");
  if (!(a.scale > 0.0)) usage("--scale must be positive");
  if (a.spec_path.empty()) a.spec_path = a.bench_dir + "/workloads/" + a.workload + ".json";
  if (a.references_path.empty()) a.references_path = a.bench_dir + "/reference_digests.json";
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Workload {
  SystemConfig config;
  std::size_t trials = 0;
  farm::workload::InvariantTolerance tolerance;
};

// Spec text -> validated config: the first half of the set-up the benchmark
// times.
Workload load_workload(const Args& a) {
  const farm::workload::Spec spec =
      farm::workload::parse_spec_text(read_file(a.spec_path));
  if (spec.points.size() != 1) {
    throw std::invalid_argument(a.spec_path + ": a workload spec has exactly one point");
  }
  if (spec.trials == 0) {
    throw std::invalid_argument(a.spec_path + ": a workload spec fixes its \"trials\"");
  }
  Workload w{farm::analysis::scale_config(spec.points.front().config, a.scale),
             spec.trials, spec.tolerance};
  w.config.validate();
  return w;
}

// The reference digest for (workload, scale, seed), if one is stored.
std::optional<std::uint64_t> reference_digest(const Args& a) {
  const farm::util::JsonValue doc =
      farm::util::JsonValue::parse(read_file(a.references_path));
  for (const farm::util::JsonValue& e : doc.at("references").as_array()) {
    if (e.at("workload").as_string() == a.workload &&
        e.at("scale").as_number() == a.scale &&
        e.at("seed").as_string() == std::to_string(a.seed)) {
      return std::stoull(e.at("digest").as_string(), nullptr, 16);
    }
  }
  return std::nullopt;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Outcome {
 public:
  void attempt(std::uint64_t trials) { attempted_ += trials; }
  void fail(std::uint64_t trials, const std::string& why) {
    failed_ += trials;
    std::cout << "FAIL: " << why << '\n';
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// One pooled run_monte_carlo call with its per-trial results captured.
struct PooledRun {
  double wall_s = 0.0;
  MonteCarloResult aggregate;
  std::vector<TrialResult> trials;
  std::vector<std::uint64_t> fingerprints;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

PooledRun pooled_run(const Workload& w, std::uint64_t seed, farm::util::ThreadPool& pool) {
  PooledRun run;
  run.trials.resize(w.trials);
  farm::core::MonteCarloOptions options;
  options.trials = w.trials;
  options.master_seed = seed;
  options.pool = &pool;
  options.observer = [&run](std::size_t i, const TrialResult& r) { run.trials[i] = r; };
  const Clock::time_point t0 = Clock::now();
  run.aggregate = farm::core::run_monte_carlo(w.config, options);
  run.wall_s = since(t0);
  for (const TrialResult& r : run.trials) {
    run.fingerprints.push_back(perfbench::trial_fingerprint(r));
    run.events += r.events_executed;
  }
  run.digest = perfbench::result_digest(run.aggregate);
  return run;
}

// Invariants of one pooled run, and its agreement with the first pooled run
// of this process (`first`; null for the first run itself, which is checked
// against the stored reference digest instead, when one matches).
void check_pooled(const Workload& w, const PooledRun& run, const PooledRun* first,
                  std::optional<std::uint64_t> reference, Outcome& outcome) {
  const auto checks = farm::workload::evaluate_invariants(w.config, run.trials,
                                                         run.aggregate, w.tolerance);
  for (const auto& c : checks) {
    if (!c.passed) outcome.fail(w.trials, "invariant " + c.name + ": " + c.detail);
  }
  if (first == nullptr) {
    std::cout << "digest " << hex(run.digest) << '\n';
    if (reference && *reference != run.digest) {
      outcome.fail(w.trials, "digest " + hex(run.digest) + " != reference " + hex(*reference));
    }
    return;
  }
  for (std::size_t i = 0; i < w.trials; ++i) {
    if (run.fingerprints[i] != first->fingerprints[i]) {
      outcome.fail(1, "trial " + std::to_string(i) + " differs between repeated runs");
    }
  }
  if (run.digest != first->digest) {
    outcome.fail(w.trials, "aggregate digest differs between repeated runs");
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end(const Args& a, Outcome& outcome) {
  // Set-up, repeated: the wait before the first simulated event.
  Workload w;
  auto set_up = [&] {
    w = load_workload(a);
    const farm::core::ReliabilitySimulator sim(
        w.config, farm::util::SeedSequence{a.seed}.stream(0));
  };
  Clock::time_point t0 = Clock::now();
  set_up();
  const auto batch = static_cast<std::size_t>(
      std::clamp(std::ceil(kSetupSampleSeconds / since(t0)), 1.0, 1000.0));
  std::vector<double> setups;
  const Clock::time_point setup_start = Clock::now();
  while (setups.size() < kMinSetupSamples ||
         (since(setup_start) < kSetupSeconds && setups.size() < kMaxSetupSamples)) {
    t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) set_up();
    setups.push_back(since(t0) / static_cast<double>(batch));
  }
  // Hand the set-up simulators' freed heap back to the system, so the peak
  // below is the pooled run's and does not depend on how much of it the
  // allocator happened to keep.
  malloc_trim(0);
  std::cout << "set-up samples " << setups.size() << " of " << batch << ", min "
            << *std::min_element(setups.begin(), setups.end()) << " max "
            << *std::max_element(setups.begin(), setups.end()) << '\n';

  farm::util::ThreadPool pool(pool_width());
  const std::optional<std::uint64_t> reference = reference_digest(a);
  std::vector<double> walls;
  std::optional<PooledRun> first;
  const Clock::time_point window = Clock::now();
  while (walls.size() < kMinTimedRepeats || since(window) < a.seconds) {
    outcome.attempt(w.trials);
    PooledRun run = pooled_run(w, a.seed, pool);
    check_pooled(w, run, first ? &*first : nullptr, reference, outcome);
    walls.push_back(run.wall_s);
    if (!first) {
      run.trials.clear();
      first = std::move(run);
    }
  }
  std::cout << "pooled runs " << walls.size() << ", trials each " << w.trials
            << ", threads " << pool.worker_count() << ", wall_s min "
            << *std::min_element(walls.begin(), walls.end()) << " max "
            << *std::max_element(walls.begin(), walls.end()) << ", fail_frac "
            << ratio(static_cast<double>(outcome.failed()),
                     static_cast<double>(outcome.attempted()))
            << '\n';
  const double wall = median(walls);
  return {
      {"setup_s", median(setups), "s"},
      {"wall_s", wall, "s"},
      {"events_per_s", ratio(static_cast<double>(first->events), wall), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// Per-layer run: traced replays plus standalone layout/selection/placement
// call costs on trial 0's post-layout state.
std::vector<Metric> per_layer(const Args& a, Outcome& outcome) {
  const Workload w = load_workload(a);
  farm::util::ThreadPool pool(pool_width());
  outcome.attempt(w.trials);
  const PooledRun pooled = pooled_run(w, a.seed, pool);
  check_pooled(w, pooled, nullptr, reference_digest(a), outcome);

  const farm::util::SeedSequence seeds{a.seed};
  perfbench::TraceLog log;
  std::vector<perfbench::TracedTrial> traced;
  std::vector<double> untraced_s;
  for (std::size_t i = 0; i < w.trials; ++i) {
    outcome.attempt(1);
    const Clock::time_point t0 = Clock::now();
    const TrialResult plain = farm::core::run_trial(w.config, seeds.stream(i));
    untraced_s.push_back(since(t0));
    traced.push_back(perfbench::run_traced_trial(w.config, seeds.stream(i), i, log));
    if (perfbench::trial_fingerprint(plain) != pooled.fingerprints[i] ||
        perfbench::trial_fingerprint(traced.back().result) != pooled.fingerprints[i]) {
      outcome.fail(1, "trial " + std::to_string(i) +
                          ": single-threaded or traced result differs from the pooled run");
    }
  }

  // Standalone layout, then selection and placement calls on its state.
  farm::core::StorageSystem system(w.config, seeds.stream(0));
  Clock::time_point t0 = Clock::now();
  system.initialize();
  const double initialize_s = since(t0);

  farm::util::Xoshiro256 rng(
      farm::util::hash_combine(a.seed, farm::util::hash_string("perfbench-replay")));
  const farm::core::TargetSelector selector(system, w.config.target_rules);
  std::vector<farm::core::GroupIndex> groups(kSelectSamples);
  for (auto& g : groups) {
    g = static_cast<farm::core::GroupIndex>(rng.below(system.group_count()));
  }
  std::uint64_t ranks = 0;
  t0 = Clock::now();
  for (const auto g : groups) {
    const auto choice = selector.select(g, {}, farm::util::Seconds{0.0}, {});
    ranks += choice.next_rank - system.state(g).next_rank;
  }
  const double select_s = since(t0);

  std::vector<std::pair<farm::core::GroupIndex, std::uint32_t>> pairs(kCandidateSamples);
  for (auto& [g, r] : pairs) {
    g = static_cast<farm::core::GroupIndex>(rng.below(system.group_count()));
    r = static_cast<std::uint32_t>(rng.below(kCandidateRanks));
  }
  std::uint64_t sink = 0;
  t0 = Clock::now();
  for (const auto& [g, r] : pairs) sink += system.candidate_disk(g, r);
  const double candidate_s = since(t0);
  std::cout << "candidate checksum " << sink << '\n';

  if (!a.trace_out.empty()) log.write_chrome(a.trace_out);

  // Per-trial means over the traced trials (layout: the median), pooled
  // ratios, and the untraced single-thread trial times for the harness.
  const auto n = static_cast<double>(w.trials);
  auto mean_s = [&](EventClass c) {
    double s = 0.0;
    for (const auto& t : traced) s += t.of(c).seconds;
    return s / n;
  };
  auto mean_events = [&](EventClass c) {
    double s = 0.0;
    for (const auto& t : traced) s += static_cast<double>(t.of(c).events);
    return s / n;
  };
  auto mean_of = [&](auto field) {
    double s = 0.0;
    for (const auto& t : traced) s += static_cast<double>(field(t.result));
    return s / n;
  };
  std::vector<double> layouts;
  double traced_total = 0.0, run_s = 0.0, events = 0.0;
  for (const auto& t : traced) {
    layouts.push_back(t.layout_s);
    traced_total += t.total_s();
    run_s += t.run_s;
    events += static_cast<double>(t.result.events_executed);
  }
  run_s /= n;
  events /= n;
  double untraced_total = 0.0;
  for (const double s : untraced_s) untraced_total += s;

  const double detect_s = mean_s(EventClass::kDetect);
  const double detect_events = mean_events(EventClass::kDetect);
  const double complete_s = mean_s(EventClass::kComplete);
  const double complete_events = mean_events(EventClass::kComplete);
  const double untraced_cls_s = mean_s(EventClass::kUntraced);
  const double untraced_events = mean_events(EventClass::kUntraced);
  const double rebuilds = mean_of([](const TrialResult& r) { return r.rebuilds_completed; });
  const double requotes = mean_of([](const TrialResult& r) { return r.fabric_requotes; });
  const double local = mean_of([](const TrialResult& r) { return r.local_repair_bytes; });
  const double cross = mean_of([](const TrialResult& r) { return r.cross_rack_repair_bytes; });
  const double requests = mean_of([](const TrialResult& r) { return r.client.requests; });
  const double reads = mean_of([](const TrialResult& r) { return r.client.reads; });
  const double degraded = mean_of([](const TrialResult& r) { return r.client.degraded_reads; });
  const double planned = mean_of([](const TrialResult& r) { return r.migrations_planned; });
  const double completed = mean_of([](const TrialResult& r) { return r.migrations_completed; });
  const double moved = mean_of([](const TrialResult& r) { return r.moved_bytes; });
  const double changed = mean_of([](const TrialResult& r) { return r.changed_weight_bytes; });
  const double blocks = static_cast<double>(system.group_count()) * system.blocks_per_group();
  const double trial_p50 = median(untraced_s);
  const double trial_max = *std::max_element(untraced_s.begin(), untraced_s.end());

  // The host-time split of a traced trial, for the doc's table.
  std::cout << "split (share of traced trial time): layout "
            << ratio(median(layouts) * n, traced_total);
  for (std::size_t c = 0; c < perfbench::kEventClasses; ++c) {
    const auto cls = static_cast<EventClass>(c);
    std::cout << ", " << perfbench::class_name(cls) << ' '
              << ratio(mean_s(cls) * n, traced_total);
  }
  std::cout << "\nspans " << log.size() << '\n';

  return {
      {"farm.layout_s", median(layouts), "s"},
      {"farm.layout_ns_per_block", ratio(median(layouts), blocks) * 1e9, "ns"},
      {"farm.initialize_s", initialize_s, "s"},
      {"farm.detect_s", detect_s, "s"},
      {"farm.detect_events", detect_events, "count"},
      {"farm.detect_us_per_event", ratio(detect_s, detect_events) * 1e6, "us"},
      {"farm.fail_s", mean_s(EventClass::kFail), "s"},
      {"farm.fail_events", mean_events(EventClass::kFail), "count"},
      {"farm.complete_s", complete_s, "s"},
      {"farm.complete_events", complete_events, "count"},
      {"farm.complete_ns_per_event", ratio(complete_s, complete_events) * 1e9, "ns"},
      {"farm.rebuilds_per_detect", ratio(rebuilds, detect_events), "ratio"},
      {"farm.redirections", mean_of([](const TrialResult& r) { return r.redirections; }),
       "count"},
      {"farm.select_ns_per_call", select_s / kSelectSamples * 1e9, "ns"},
      {"farm.select_ranks_per_call",
       static_cast<double>(ranks) / static_cast<double>(kSelectSamples), "count"},
      {"placement.candidate_ns_per_call", candidate_s / kCandidateSamples * 1e9, "ns"},
      {"sim.run_s", run_s, "s"},
      {"sim.events", events, "count"},
      {"sim.ns_per_event", ratio(run_s, events) * 1e9, "ns"},
      {"sim.untraced_s", untraced_cls_s, "s"},
      {"sim.untraced_events", untraced_events, "count"},
      {"net.requotes", requotes, "count"},
      {"net.requotes_per_rebuild", ratio(requotes, rebuilds), "ratio"},
      {"net.cross_rack_frac", ratio(cross, local + cross), "ratio"},
      {"net.us_per_requote", ratio(detect_s + complete_s, requotes) * 1e6, "us"},
      {"client.requests", requests, "count"},
      {"client.degraded_frac", ratio(degraded, reads), "ratio"},
      {"client.ns_per_request", ratio(untraced_cls_s, requests) * 1e9, "ns"},
      {"fleet.plan_s", mean_s(EventClass::kPlan), "s"},
      {"fleet.plan_events", mean_events(EventClass::kPlan), "count"},
      {"fleet.migrations_planned", planned, "count"},
      {"fleet.migrations_completed", completed, "count"},
      {"fleet.completed_frac", ratio(completed, planned), "ratio"},
      {"fleet.move_ratio", ratio(moved, changed), "ratio"},
      {"fleet.flow_ns_per_event", ratio(untraced_cls_s, untraced_events) * 1e9, "ns"},
      {"mc.trial_p50_s", trial_p50, "s"},
      {"mc.trial_max_s", trial_max, "s"},
      {"mc.trial_samples", n, "count"},
      {"mc.straggler_ratio", ratio(trial_max, trial_p50), "ratio"},
      {"trace.overhead_frac", ratio(traced_total, untraced_total) - 1.0, "ratio"},
  };
}

void print_result(const Outcome& outcome, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << m.value << ' ' << m.unit << '\n';
  }
  // Callers read the result from the last stdout line, so it is one line.
  std::cout << "{\"correct\": " << (outcome.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted()
            << ", \"failed\": " << outcome.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
              << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::cout.precision(17);
  Outcome outcome;
  std::vector<Metric> metrics;
  try {
    metrics = args.trace == 1 ? per_layer(args, outcome) : end_to_end(args, outcome);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  print_result(outcome, metrics);
  return outcome.failed() == 0 ? 0 : 1;
}
