// The traced replay of one Monte-Carlo trial.
//
// The benchmark records its spans from outside the simulator: it times the
// ReliabilitySimulator constructor (layout), then drives the event loop one
// event at a time through sim::Simulator::run_until with an always-true stop
// predicate, and classes each event by the first kind the simulator's trace
// sink reports while it runs.  run() then only collects the TrialResult,
// which must equal the untraced trial's result bit for bit.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "farm/config.hpp"
#include "farm/metrics.hpp"

namespace perfbench {

enum class EventClass : std::size_t {
  kDetect,    // first trace kind "detected"
  kFail,      // "disk_failed"
  kComplete,  // "rebuild_complete"
  kPlan,      // "fleet_expand", "fleet_set_weight", "fleet_decommission"
  kOther,     // any other trace kind first
  kUntraced,  // no trace kind at all (client requests, migration flows, ...)
};
inline constexpr std::size_t kEventClasses = 6;

[[nodiscard]] std::string_view class_name(EventClass c);

struct ClassTotals {
  double seconds = 0.0;
  std::uint64_t events = 0;
};

struct TracedTrial {
  farm::core::TrialResult result;
  double layout_s = 0.0;   // ReliabilitySimulator constructor
  double run_s = 0.0;      // stepping every event to the horizon
  double collect_s = 0.0;  // run(), which only gathers the result
  std::array<ClassTotals, kEventClasses> classes{};

  [[nodiscard]] const ClassTotals& of(EventClass c) const {
    return classes[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double total_s() const { return layout_s + run_s + collect_s; }
};

/// In-memory span store, written once as Chrome trace-event JSON (opens in
/// Perfetto and chrome://tracing).
class TraceLog {
 public:
  using Clock = std::chrono::steady_clock;

  TraceLog() : origin_(Clock::now()) {}

  void add(std::string name, std::string_view category, Clock::time_point start,
           double seconds, int lane, std::uint64_t trial, std::uint64_t count = 1);
  void write_chrome(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    std::string category;
    double ts_us;
    double dur_us;
    int lane;
    std::uint64_t trial;
    std::uint64_t count;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Replays trial `trial` (seed `seed`) single-threaded with spans: one per
/// trial, layout and run, one per detect, fail and fleet-plan event, and
/// one aggregate span with a count for each bulk class.
[[nodiscard]] TracedTrial run_traced_trial(const farm::core::SystemConfig& config,
                                           std::uint64_t seed, std::uint64_t trial,
                                           TraceLog& log);

}  // namespace perfbench
