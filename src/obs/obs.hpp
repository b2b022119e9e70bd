// obs.hpp — virtual-time tracing and metrics for the simulator.
//
// BLAP's attacks are timing attacks: link-key extraction hinges on *when*
// the plaintext key crosses the HCI, page blocking on *who wins the paging
// race by how many microseconds*. Leveled logs cannot answer either
// question, so this subsystem records the protocol timeline itself:
//
//   * TraceRecorder — a bounded ring of structured events
//     {virtual_time, device, layer, kind, name, args} with span begin/end
//     pairs for protocol phases (inquiry, paging race, LMP auth, SSP,
//     encryption start, attack steps). Exports Chrome trace-event JSON
//     (load it in Perfetto/chrome://tracing; virtual µs as `ts`, one
//     thread lane per device) and a compact text timeline. Both emits are
//     pure functions of the recorded events — byte-identical across
//     re-runs and across BLAP_JOBS counts.
//
//   * MetricsRegistry — named counters, max-gauges and log2-bucketed
//     virtual-time histograms (packets per layer, page timeouts, HCI
//     commands by opcode group, scheduler queue depth/dispatch counts).
//     Snapshots are mergeable with deterministic results regardless of
//     merge grouping, so campaign workers can aggregate per-trial
//     snapshots into one bit-stable JSON block.
//
//   * Observer — the per-Simulation façade components talk to. Everything
//     is run-time-off by default: an uninstrumented simulation holds a
//     null Observer pointer and every instrumentation site costs exactly
//     one branch (`if (obs_)`). The Observer also implements SchedulerHook
//     to count dispatched events and watch queue depth.
//
// Determinism contract: all timestamps are virtual (SimTime), device ids
// are interned in first-use order on the single simulation thread, map
// keys are emitted in sorted order, and no wall-clock value ever reaches
// an emit.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/scheduler.hpp"

namespace blap::obs {

/// Stack layer an event belongs to; becomes the Chrome trace `cat`.
enum class Layer : std::uint8_t {
  kRadio,
  kScheduler,
  kController,
  kLmp,
  kHci,
  kHost,
  kSecurity,
  kAttack,
};

[[nodiscard]] const char* to_string(Layer layer);

/// One recorded event. `phase` is 'i' (instant), 'b' (span begin) or
/// 'e' (span end); begin/end pairs share a nonzero `span_id`.
struct TraceEvent {
  SimTime ts = 0;
  std::uint64_t seq = 0;  // insertion order, breaks timestamp ties
  char phase = 'i';
  Layer layer = Layer::kHost;
  std::uint32_t device = 0;  // interned device id (trace tid)
  std::uint64_t span_id = 0;
  std::string name;
  std::string args;  // free-form detail, emitted under args.detail
};

/// Bounded ring buffer of TraceEvents. When full the oldest event is
/// dropped (and counted), so long scenarios keep the most recent window —
/// the part that explains the outcome.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 1 << 16);

  /// Intern a device name; returns its stable trace tid. Names (not
  /// BD_ADDRs) identify devices because the attacks spoof addresses —
  /// mid-trace the attacker and the accessory share an address, but each
  /// keeps its name.
  std::uint32_t intern_device(std::string_view name);
  [[nodiscard]] const std::vector<std::string>& devices() const { return devices_; }

  void instant(SimTime ts, std::uint32_t device, Layer layer, std::string name,
               std::string detail = {});
  /// Open a span; returns its id (never 0).
  std::uint64_t begin_span(SimTime ts, std::uint32_t device, Layer layer,
                           std::string name, std::string detail = {});
  /// Close span `id`. `ts` may lie in the virtual future of the most recent
  /// event (e.g. a paging-race candidate whose scan-window latency is known
  /// at page start); exports sort by timestamp. Unknown ids are ignored.
  void end_span(SimTime ts, std::uint64_t id, std::string detail = {});

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const std::deque<TraceEvent>& events() const { return events_; }

  /// Chrome trace-event JSON (the `{"traceEvents":[...]}` object form).
  /// Spans with both ends retained become complete ("X") slices; a span
  /// still open at export becomes a zero-duration slice flagged unclosed.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Compact human-readable timeline, one event per line, time-ordered.
  [[nodiscard]] std::string to_text() const;

  /// Snapshot-fork support: drop all recorded events and reset the
  /// seq/span/dropped counters to a just-constructed state. Interned
  /// devices are kept — they were interned in wiring order, which a
  /// rebuilt simulation reproduces identically, and cached tids in the
  /// stack stay valid.
  void reset() {
    events_.clear();
    open_.clear();
    next_seq_ = 0;
    next_span_ = 1;
    dropped_ = 0;
  }

 private:
  struct OpenSpan {
    Layer layer = Layer::kHost;
    std::uint32_t device = 0;
    std::string name;
  };

  void push(TraceEvent event);

  std::size_t capacity_;
  std::deque<TraceEvent> events_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_span_ = 1;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> devices_;
  // Lookup-only (find/erase by span id, never iterated), so hash order can't
  // reach the exports — events_ is serialized in recorded order. blap-lint D2
  // flags iteration, not lookups; keep unordered for O(1) span close.
  std::unordered_map<std::uint64_t, OpenSpan> open_;
};

/// Log2-bucketed histogram over unsigned 64-bit samples (virtual-time
/// durations, queue depths). Bucket index of a sample v is bit_width(v),
/// so bucket b counts samples in [2^(b-1), 2^b). Bucket-wise merge makes
/// aggregation order-independent and therefore worker-count-independent.
struct HistData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, 65> buckets{};

  void observe(std::uint64_t value);
  void merge(const HistData& other);
};

/// A frozen, mergeable view of a trial's metrics. Keys are sorted
/// (std::map) so to_json() is deterministic; merging sums counters and
/// histogram buckets and takes the max of gauges — all order-independent.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, std::uint64_t, std::less<>> gauges;
  std::map<std::string, HistData, std::less<>> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  void merge_from(const MetricsSnapshot& other);
  /// Deterministic JSON object. Every line is prefixed with `indent`; the
  /// opening brace is not (so the block can follow a `"metrics": ` key).
  [[nodiscard]] std::string to_json(const std::string& indent = {}) const;
};

/// Live metric store. add/gauge_max/observe take string_view names (no
/// allocation on the hot path once a key exists).
class MetricsRegistry {
 public:
  void add(std::string_view name, std::uint64_t delta = 1);
  void gauge_max(std::string_view name, std::uint64_t value);
  void observe(std::string_view name, std::uint64_t value);

  [[nodiscard]] const MetricsSnapshot& data() const { return data_; }
  [[nodiscard]] MetricsSnapshot snapshot() const { return data_; }
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  /// Snapshot-fork support: zero every counter, gauge and histogram.
  void reset() { data_ = MetricsSnapshot{}; }

 private:
  MetricsSnapshot data_;
};

struct ObsConfig {
  bool tracing = false;
  bool metrics = false;
  std::size_t trace_capacity = 1 << 16;
};

/// Per-Simulation observability façade. Components hold a raw
/// `Observer*` (null when observability is off) and guard each site with
/// one branch. The convenience methods below additionally no-op when the
/// corresponding half (tracing / metrics) is disabled, so callers that
/// already paid the null check don't need to distinguish the two.
class Observer final : public SchedulerHook {
 public:
  explicit Observer(ObsConfig config = {});

  [[nodiscard]] bool tracing() const { return config_.tracing; }
  [[nodiscard]] bool metrics_on() const { return config_.metrics; }
  [[nodiscard]] const ObsConfig& config() const { return config_; }

  [[nodiscard]] TraceRecorder& recorder() { return trace_; }
  [[nodiscard]] const TraceRecorder& recorder() const { return trace_; }
  [[nodiscard]] MetricsRegistry& registry() { return metrics_; }

  /// Intern a device name for tracing (valid even while tracing is off,
  /// so wiring code can cache tids unconditionally).
  std::uint32_t device_tid(std::string_view name) { return trace_.intern_device(name); }

  // --- metrics convenience --------------------------------------------------
  void count(std::string_view name, std::uint64_t delta = 1) {
    if (config_.metrics) metrics_.add(name, delta);
  }
  void gauge_max(std::string_view name, std::uint64_t value) {
    if (config_.metrics) metrics_.gauge_max(name, value);
  }
  void observe(std::string_view name, std::uint64_t value) {
    if (config_.metrics) metrics_.observe(name, value);
  }

  // --- tracing convenience --------------------------------------------------
  void instant(SimTime ts, std::uint32_t device, Layer layer, std::string name,
               std::string detail = {}) {
    if (config_.tracing)
      trace_.instant(ts, device, layer, std::move(name), std::move(detail));
  }
  std::uint64_t begin_span(SimTime ts, std::uint32_t device, Layer layer,
                           std::string name, std::string detail = {}) {
    if (!config_.tracing) return 0;
    return trace_.begin_span(ts, device, layer, std::move(name), std::move(detail));
  }
  void end_span(SimTime ts, std::uint64_t id, std::string detail = {}) {
    if (config_.tracing && id != 0) trace_.end_span(ts, id, std::move(detail));
  }
  /// Record a span whose end time is already known (paging-race windows).
  void span(SimTime begin, SimTime end, std::uint32_t device, Layer layer,
            std::string name, std::string detail = {}) {
    if (!config_.tracing) return;
    const std::uint64_t id =
        trace_.begin_span(begin, device, layer, std::move(name), std::move(detail));
    trace_.end_span(end, id);
  }

  // --- SchedulerHook --------------------------------------------------------
  void on_dispatch(SimTime now, std::size_t queue_depth) override {
    (void)now;
    ++dispatched_;
    if (queue_depth > max_queue_depth_) max_queue_depth_ = queue_depth;
  }
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }

  /// Metrics snapshot with the scheduler-side tallies folded in.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Snapshot-fork support: return to the state of a freshly constructed
  /// Observer (same config, same interned devices, nothing recorded). The
  /// fork path resets instead of reallocating so every set_observer wiring
  /// and cached tid in the stack stays valid.
  void reset() {
    trace_.reset();
    metrics_.reset();
    dispatched_ = 0;
    max_queue_depth_ = 0;
  }

 private:
  ObsConfig config_;
  TraceRecorder trace_;
  MetricsRegistry metrics_;
  std::uint64_t dispatched_ = 0;
  std::size_t max_queue_depth_ = 0;
};

}  // namespace blap::obs
