#include "src/common/metrics.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

namespace adgc {

namespace {

// Single table driving merge/report/reset so a new counter only needs one
// entry here besides the struct field.
struct Field {
  const char* name;
  Counter Metrics::* member;
};

struct HistField {
  const char* name;
  Histogram Metrics::* member;
};

const std::vector<Field>& fields() {
  static const std::vector<Field> kFields = {
      {"invocations_sent", &Metrics::invocations_sent},
      {"invocations_received", &Metrics::invocations_received},
      {"invocations_dropped", &Metrics::invocations_dropped},
      {"replies_sent", &Metrics::replies_sent},
      {"replies_received", &Metrics::replies_received},
      {"refs_exported", &Metrics::refs_exported},
      {"refs_imported", &Metrics::refs_imported},
      {"stubs_created", &Metrics::stubs_created},
      {"stubs_deleted", &Metrics::stubs_deleted},
      {"scions_created", &Metrics::scions_created},
      {"scions_deleted_acyclic", &Metrics::scions_deleted_acyclic},
      {"scions_deleted_cyclic", &Metrics::scions_deleted_cyclic},
      {"new_set_stubs_sent", &Metrics::new_set_stubs_sent},
      {"new_set_stubs_received", &Metrics::new_set_stubs_received},
      {"add_scion_sent", &Metrics::add_scion_sent},
      {"add_scion_retries", &Metrics::add_scion_retries},
      {"add_scion_abandoned", &Metrics::add_scion_abandoned},
      {"lgc_runs", &Metrics::lgc_runs},
      {"objects_allocated", &Metrics::objects_allocated},
      {"objects_reclaimed", &Metrics::objects_reclaimed},
      {"snapshots_taken", &Metrics::snapshots_taken},
      {"snapshot_bytes", &Metrics::snapshot_bytes},
      {"summarizations", &Metrics::summarizations},
      {"snapshots_coalesced", &Metrics::snapshots_coalesced},
      {"snapshot_persist_failures", &Metrics::snapshot_persist_failures},
      {"detections_started", &Metrics::detections_started},
      {"detections_cycle_found", &Metrics::detections_cycle_found},
      {"detections_aborted_ic", &Metrics::detections_aborted_ic},
      {"detections_aborted_local", &Metrics::detections_aborted_local},
      {"detections_dropped_no_scion", &Metrics::detections_dropped_no_scion},
      {"detections_dropped_dup", &Metrics::detections_dropped_dup},
      {"cdms_deduped", &Metrics::cdms_deduped},
      {"detections_timed_out", &Metrics::detections_timed_out},
      {"detections_aborted_crash", &Metrics::detections_aborted_crash},
      {"cdms_sent", &Metrics::cdms_sent},
      {"cdms_received", &Metrics::cdms_received},
      {"cdm_bytes", &Metrics::cdm_bytes},
      {"messages_sent", &Metrics::messages_sent},
      {"messages_delivered", &Metrics::messages_delivered},
      {"messages_lost", &Metrics::messages_lost},
      {"messages_duplicated", &Metrics::messages_duplicated},
      {"bytes_sent", &Metrics::bytes_sent},
      {"peer_suspect_transitions", &Metrics::peer_suspect_transitions},
      {"cdms_shed", &Metrics::cdms_shed},
      {"new_set_stubs_shed", &Metrics::new_set_stubs_shed},
      {"new_set_stubs_deferred", &Metrics::new_set_stubs_deferred},
      {"detections_deferred_backoff", &Metrics::detections_deferred_backoff},
      {"candidates_deprioritized", &Metrics::candidates_deprioritized},
      {"peers_evicted", &Metrics::peers_evicted},
      {"eviction_scions_dropped", &Metrics::eviction_scions_dropped},
      {"eviction_stubs_retired", &Metrics::eviction_stubs_retired},
      {"detections_aborted_eviction", &Metrics::detections_aborted_eviction},
      {"eviction_nacks_sent", &Metrics::eviction_nacks_sent},
      {"eviction_nacks_received", &Metrics::eviction_nacks_received},
      {"messages_rejected_evicted", &Metrics::messages_rejected_evicted},
      {"nss_solicits_sent", &Metrics::nss_solicits_sent},
      {"peer_health_slots", &Metrics::peer_health_slots},
      {"peer_health_slots_pruned", &Metrics::peer_health_slots_pruned},
      {"batches_sent", &Metrics::batches_sent},
      {"batch_singletons", &Metrics::batch_singletons},
      {"batched_messages", &Metrics::batched_messages},
      {"batch_flush_size", &Metrics::batch_flush_size},
      {"batch_flush_count", &Metrics::batch_flush_count},
      {"batch_flush_deadline", &Metrics::batch_flush_deadline},
      {"batch_flush_priority", &Metrics::batch_flush_priority},
      {"batch_flush_burst", &Metrics::batch_flush_burst},
      {"batch_flush_drain", &Metrics::batch_flush_drain},
      {"batch_bytes_saved", &Metrics::batch_bytes_saved},
      {"batches_received", &Metrics::batches_received},
      {"batch_messages_received", &Metrics::batch_messages_received},
      {"batches_poisoned", &Metrics::batches_poisoned},
      {"arena_acquires", &Metrics::arena_acquires},
      {"arena_reuses", &Metrics::arena_reuses},
      {"tcp_connects", &Metrics::tcp_connects},
      {"tcp_accepts", &Metrics::tcp_accepts},
      {"tcp_disconnects", &Metrics::tcp_disconnects},
      {"tcp_reconnect_backoffs", &Metrics::tcp_reconnect_backoffs},
      {"tcp_frames_sent", &Metrics::tcp_frames_sent},
      {"tcp_frames_received", &Metrics::tcp_frames_received},
      {"tcp_frames_rejected", &Metrics::tcp_frames_rejected},
      {"tcp_hello_sent", &Metrics::tcp_hello_sent},
      {"tcp_hello_received", &Metrics::tcp_hello_received},
      {"process_crashes", &Metrics::process_crashes},
      {"process_restarts", &Metrics::process_restarts},
      {"restarts_recovered", &Metrics::restarts_recovered},
      {"messages_dropped_crashed", &Metrics::messages_dropped_crashed},
      {"messages_stale_incarnation", &Metrics::messages_stale_incarnation},
  };
  return kFields;
}

/// The counter table in sorted name order — report() and the Prometheus
/// exposition must be deterministic regardless of declaration order.
const std::vector<Field>& sorted_fields() {
  static const std::vector<Field> kSorted = [] {
    std::vector<Field> v = fields();
    std::sort(v.begin(), v.end(), [](const Field& a, const Field& b) {
      return std::strcmp(a.name, b.name) < 0;
    });
    return v;
  }();
  return kSorted;
}

const std::vector<HistField>& hist_fields() {
  static const std::vector<HistField> kFields = [] {
    std::vector<HistField> v = {
        {"batch_flush_msgs", &Metrics::batch_flush_msgs},
        {"detection_lifetime_us", &Metrics::detection_lifetime_us},
        {"lgc_pause_us", &Metrics::lgc_pause_us},
        {"rmi_rtt_us", &Metrics::rmi_rtt_us},
        {"snapshot_capture_us", &Metrics::snapshot_capture_us},
        {"snapshot_persist_us", &Metrics::snapshot_persist_us},
        {"snapshot_summarize_us", &Metrics::snapshot_summarize_us},
        {"tcp_writeq_depth", &Metrics::tcp_writeq_depth},
    };
    std::sort(v.begin(), v.end(), [](const HistField& a, const HistField& b) {
      return std::strcmp(a.name, b.name) < 0;
    });
    return v;
  }();
  return kFields;
}

}  // namespace

void Metrics::merge(const Metrics& other) {
  for (const auto& f : fields()) {
    (this->*f.member).add((other.*f.member).get());
  }
  for (const auto& f : hist_fields()) {
    (this->*f.member).merge(other.*f.member);
  }
}

std::string Metrics::report(const std::string& prefix) const {
  std::ostringstream os;
  for (const auto& f : sorted_fields()) {
    const std::uint64_t v = (this->*f.member).get();
    if (v != 0) os << prefix << f.name << " = " << v << "\n";
  }
  for (const auto& f : hist_fields()) {
    const Histogram& h = this->*f.member;
    const std::uint64_t n = h.count();
    if (n == 0) continue;
    os << prefix << f.name << ": count=" << n << " p50~" << h.quantile(0.5)
       << " p99~" << h.quantile(0.99) << " mean=" << h.sum() / n << "\n";
  }
  return os.str();
}

void Metrics::reset() {
  for (const auto& f : fields()) (this->*f.member).reset();
  for (const auto& f : hist_fields()) (this->*f.member).reset();
}

void Metrics::for_each_counter(
    const std::function<void(const char*, std::uint64_t)>& fn) const {
  for (const auto& f : sorted_fields()) fn(f.name, (this->*f.member).get());
}

void Metrics::for_each_histogram(
    const std::function<void(const char*, const Histogram&)>& fn) const {
  for (const auto& f : hist_fields()) fn(f.name, this->*f.member);
}

}  // namespace adgc
