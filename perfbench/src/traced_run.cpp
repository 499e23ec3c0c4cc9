#include "traced_run.hpp"

#include <fstream>
#include <functional>
#include <stdexcept>

#include "farm/reliability_sim.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

using Clock = TraceLog::Clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Chrome trace lanes (thread ids): whole-trial spans, per-event spans, and
// the per-trial aggregates of bulk classes, which would overlap the
// per-event spans if they shared a lane.
constexpr int kTrialLane = 1;
constexpr int kEventLane = 2;
constexpr int kAggregateLane = 3;

EventClass classify(std::string_view trace_kind) {
  if (trace_kind == "detected") return EventClass::kDetect;
  if (trace_kind == "disk_failed") return EventClass::kFail;
  if (trace_kind == "rebuild_complete") return EventClass::kComplete;
  if (trace_kind == "fleet_expand" || trace_kind == "fleet_set_weight" ||
      trace_kind == "fleet_decommission") {
    return EventClass::kPlan;
  }
  return EventClass::kOther;
}

}  // namespace

std::string_view class_name(EventClass c) {
  switch (c) {
    case EventClass::kDetect: return "detect";
    case EventClass::kFail: return "fail";
    case EventClass::kComplete: return "rebuild_complete";
    case EventClass::kPlan: return "fleet_plan";
    case EventClass::kOther: return "other_traced";
    case EventClass::kUntraced: return "untraced";
  }
  return "?";
}

void TraceLog::add(std::string name, std::string_view category,
                   Clock::time_point start, double seconds, int lane,
                   std::uint64_t trial, std::uint64_t count) {
  spans_.push_back(Span{std::move(name), std::string(category),
                        seconds_between(origin_, start) * 1e6, seconds * 1e6,
                        lane, trial, count});
}

void TraceLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  farm::util::JsonWriter w(out);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", s.category);
    w.kv("ph", "X");
    w.kv("ts", s.ts_us);
    w.kv("dur", s.dur_us);
    w.kv("pid", 1);
    w.kv("tid", s.lane);
    w.key("args");
    w.begin_object();
    w.kv("trial", s.trial);
    w.kv("count", s.count);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

TracedTrial run_traced_trial(const farm::core::SystemConfig& config,
                             std::uint64_t seed, std::uint64_t trial,
                             TraceLog& log) {
  if (config.stop_at_first_loss) {
    // run() would execute one more event after the loss than the stepping
    // below, so the traced result could not match the untraced one.
    throw std::invalid_argument(
        "traced replay does not support stop_at_first_loss");
  }
  TracedTrial out;
  const Clock::time_point trial_start = Clock::now();
  farm::core::ReliabilitySimulator sim(config, seed);
  const Clock::time_point built = Clock::now();
  out.layout_s = seconds_between(trial_start, built);
  log.add("layout", "farm", trial_start, out.layout_s, kTrialLane, trial);

  bool classified = false;
  EventClass current = EventClass::kUntraced;
  sim.set_trace([&](double, std::string_view kind, std::uint64_t) {
    if (classified) return;
    classified = true;
    current = classify(kind);
  });

  farm::sim::Simulator& engine = sim.simulator();
  const std::function<bool()> one_event = [] { return true; };
  for (;;) {
    classified = false;
    current = EventClass::kUntraced;
    const Clock::time_point a = Clock::now();
    const std::uint64_t ran = engine.run_until(config.mission_time, one_event);
    const Clock::time_point b = Clock::now();
    if (ran == 0) break;
    const double dt = seconds_between(a, b);
    ClassTotals& totals = out.classes[static_cast<std::size_t>(current)];
    totals.seconds += dt;
    ++totals.events;
    if (current == EventClass::kDetect || current == EventClass::kFail ||
        current == EventClass::kPlan) {
      log.add(std::string(class_name(current)), "event", a, dt, kEventLane, trial);
    }
  }
  const Clock::time_point stepped = Clock::now();
  out.run_s = seconds_between(built, stepped);
  log.add("run", "sim", built, out.run_s, kTrialLane, trial,
          engine.events_executed());

  out.result = sim.run();
  const Clock::time_point done = Clock::now();
  out.collect_s = seconds_between(stepped, done);

  // Bulk classes become one aggregate span each, laid end to end from the
  // start of the run, so a client-heavy trial does not write a span per
  // request.
  Clock::time_point cursor = built;
  for (const EventClass c : {EventClass::kComplete, EventClass::kOther,
                             EventClass::kUntraced}) {
    const ClassTotals& t = out.of(c);
    if (t.events == 0) continue;
    log.add(std::string(class_name(c)) + " (aggregate)", "aggregate", cursor,
            t.seconds, kAggregateLane, trial, t.events);
    cursor += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t.seconds));
  }
  log.add("trial " + std::to_string(trial), "trial", trial_start,
          seconds_between(trial_start, done), kTrialLane, trial);
  return out;
}

}  // namespace perfbench
