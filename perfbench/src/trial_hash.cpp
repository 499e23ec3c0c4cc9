#include "trial_hash.hpp"

#include <cstring>
#include <type_traits>
#include <utility>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "farm/serialize.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// 64-bit FNV-1a of `bytes`, continuing from `h`.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

class Hasher {
 public:
  template <typename T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    h_ = fnv1a(std::string_view(buf, sizeof(T)), h_);
  }
  void add(const std::string& s) {
    add(s.size());
    h_ = fnv1a(s, h_);
  }
  template <typename T>
  void add(const std::vector<T>& xs) {
    add(xs.size());
    for (const T& x : xs) add(x);
  }
  template <typename A, typename B>
  void add(const std::pair<A, B>& p) {
    add(p.first);
    add(p.second);
  }
  void add(const farm::util::LogHistogram& hist) {
    add(hist.min_value());
    add(hist.max_value());
    add(hist.total());
    add(hist.bins());
    for (std::size_t i = 0; i < hist.bins(); ++i) add(hist.bin_count(i));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

}  // namespace

std::uint64_t trial_fingerprint(const farm::core::TrialResult& r) {
  Hasher h;
  h.add(r.data_lost);
  h.add(r.first_loss.value());
  h.add(r.lost_groups);
  h.add(r.disk_failures);
  h.add(r.domain_failures);
  h.add(r.rebuilds_completed);
  h.add(r.ure_losses);
  h.add(r.redirections);
  h.add(r.stalls);
  h.add(r.batches);
  h.add(r.migrated_blocks);
  h.add(r.events_executed);
  h.add(r.fabric_active);
  h.add(r.local_repair_bytes);
  h.add(r.cross_rack_repair_bytes);
  h.add(r.fabric_requotes);
  h.add(r.mean_window_sec);
  h.add(r.max_window_sec);
  h.add(r.degraded_exposure);
  h.add(r.initial_used_bytes);
  h.add(r.final_used_bytes);
  h.add(r.recovery_read_bytes);
  h.add(r.recovery_write_bytes);

  const farm::client::ClientSummary& c = r.client;
  h.add(c.active);
  h.add(c.requests);
  h.add(c.reads);
  h.add(c.writes);
  h.add(c.degraded_reads);
  h.add(c.unavailable_requests);
  h.add(c.user_read_bytes);
  h.add(c.degraded_user_bytes);
  h.add(c.reconstruction_disk_bytes);
  h.add(c.cross_rack_reconstruction_bytes);
  h.add(c.mean_measured_demand);
  h.add(c.phase_counts);
  h.add(c.slo_violations);
  h.add(c.latency);

  h.add(r.fault_active);
  h.add(r.shock_events);
  h.add(r.shock_kills);
  h.add(r.shock_degraded);
  h.add(r.fail_slow_onsets);
  h.add(r.proactive_evictions);
  h.add(r.detection_slips);
  h.add(r.detection_slip_sec);
  h.add(r.spurious_detections);
  h.add(r.spurious_rebuilds);
  h.add(r.spurious_cancelled);
  h.add(r.rebuild_interruptions);

  h.add(r.fleet_active);
  h.add(r.fleet_expansions);
  h.add(r.fleet_decommissions);
  h.add(r.fleet_weight_changes);
  h.add(r.fleet_disks_added);
  h.add(r.fleet_disks_retired);
  h.add(r.migrations_planned);
  h.add(r.migrations_completed);
  h.add(r.migrations_cancelled);
  h.add(r.planned_move_bytes);
  h.add(r.moved_bytes);
  h.add(r.changed_weight_bytes);
  h.add(r.drained_bytes);
  h.add(r.landed_bytes);
  h.add(r.drain_deadline_misses);
  h.add(r.drain_residual_blocks);
  h.add(r.migration_local_bytes);
  h.add(r.migration_cross_rack_bytes);

  h.add(r.buggify_active);
  h.add(r.buggify_fired);
  return h.value();
}

std::uint64_t result_digest(const farm::core::MonteCarloResult& r) {
  std::ostringstream os;
  farm::util::JsonWriter w(os);
  farm::core::write_json(w, r);
  return fnv1a(os.str());
}

}  // namespace perfbench
