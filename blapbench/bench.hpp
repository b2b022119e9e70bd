// bench.hpp — shared machinery of the repository benchmark.
//
// Every workload has the same shape: a setup (timed, repeated, median
// reported), then a closed-loop timed phase that runs the workload's units
// round-robin, each unit once at 1 worker and once at `par` workers through
// the layer's public `jobs` config. A unit is a deterministic batch — a
// Table II row, a fuzz campaign, a fleet scan — whose output string must be
// byte-identical at both worker counts and on every repetition. After the
// first full cycle the concatenated outputs are digested and, for the
// workload's default seed, compared with the pinned digest. Any mismatch
// marks every operation of that unit failed. Throughput is taken from each
// unit's fastest repetition: on a shared host, interference only adds time,
// so the fastest repetition is the least disturbed reading of the unit's
// own cost.
//
// The traced run (--trace 1) adds spans at the benchmark's calls into the
// layers and layer microcalls; spans stay in memory until the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "transport/transport.hpp"

namespace blap::bench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

/// Deliberate output corruptions that prove the checks bite (selftest.py).
enum class Perturb : std::uint8_t {
  kNone,
  kFlipByte,         // flip one byte of the first unit's 1-worker output
  kOpCount,          // simulator workloads: one trial reports a changed count
  kTruncateCapture,  // fleet_scan: cut one capture short after setup
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Perturb perturb = Perturb::kNone;
  /// Scratch directory inside the checkout (fleet files, the span dump).
  std::string workdir;
  /// The ops_per_s_par worker count: hardware threads less one (one stays
  /// free for the rest of the system), clamped to 1..4.
  unsigned par_jobs = 1;
};

/// Median and nearest-rank percentile of a sample (0 for an empty one).
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);

/// SHA-256 of `text` as lowercase hex.
std::string sha256_hex(const std::string& text);

/// One deterministic batch of operations and its checked output.
struct UnitRun {
  std::uint64_t ops = 0;
  std::string output;  // the byte-identity artifact
  bool shape_ok = true;
  std::string shape_error;
};

/// A workload's unit: run it at `jobs` workers. `pass` counts the earlier
/// cycles (perturbations key on the first 1-worker pass).
struct Unit {
  std::string label;
  std::function<UnitRun(unsigned jobs, std::size_t pass)> run;
};

/// Outcome of the closed-loop phase over a unit list.
struct LoopResult {
  double ops_per_s = 0.0;      // Σ ops ÷ Σ per-unit fastest 1-worker wall
  double ops_per_s_par = 0.0;  // same at par workers
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  std::vector<std::string> outputs;  // first-cycle output per unit
  std::string digest;                // of the first cycle's outputs
  double setup_s = 0.0;              // median over kSetupRepeats setups
};

/// How often each workload repeats its setup; setup_s is the median.
inline constexpr int kSetupRepeats = 21;

/// Run `setup` once, then `units` round-robin until `seconds` elapse (at
/// least one full cycle), each at 1 and at `par_jobs` workers, checking
/// byte identity and, when `pinned_digest` is non-empty, the first cycle's
/// digest. `repeat_setup` (the same work as `setup`, writing nowhere the
/// units read) runs kSetupRepeats - 1 more times, spread over the timed
/// phase between units and outside their walls, so setup_s samples the
/// host's state across the whole run rather than one instant.
LoopResult run_loop(const std::vector<Unit>& units, const Options& opt,
                    const std::string& pinned_digest, const std::function<void()>& setup,
                    const std::function<void()>& repeat_setup);

/// In-memory span store. Spans of one operation share `op`; `parent` is 0
/// for the operation's root span.
class Tracer {
 public:
  struct Span {
    std::uint64_t op = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  std::uint64_t new_op();
  /// Open a span; returns its id.
  std::uint64_t begin(std::uint64_t op, std::uint64_t parent, std::string name);
  void end(std::uint64_t id);
  /// Time `fn` as a span; returns its duration in ns.
  std::uint64_t span(std::uint64_t op, std::uint64_t parent, std::string name,
                     const std::function<void()>& fn);

  /// Durations (ns) of every closed span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self time per span name: duration minus the time its children cover.
  [[nodiscard]] std::map<std::string, double> self_ns() const;
  /// Write every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_op_ = 1;
  std::uint64_t next_id_ = 1;
};

/// Ordered name → (value, unit) bag printed as the result line's metrics.
struct Metrics {
  std::map<std::string, std::pair<double, std::string>> values;
  void set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
};

/// Counts the traced run reads out of one operation's observer.
struct SimCounts {
  double ops = 0;
  double events = 0, pages = 0, lmp_pdus = 0, hci_packets = 0, pairings = 0;
  double drops = 0, retx = 0, supervision_timeouts = 0;
  /// SSP initiations by curve, from the trace's "ssp initiator (P-xxx)" spans.
  double ssp_p256 = 0, ssp_p192 = 0;
  /// Adds one operation (`ops` += 1); `trace` may be null.
  void add(const obs::MetricsSnapshot& m, const obs::TraceRecorder* trace);
};

/// Direct crypto microcall costs (medians, µs).
struct CryptoCosts {
  double p256_keygen_us = 0, p256_ecdh_us = 0, p192_ecdh_us = 0;
};

/// Times generate_keypair / ecdh_shared_secret with a workload-seeded Rng;
/// sample() can be spread across a run so the medians see the same host
/// state as the operations they are compared with.
class CryptoSampler {
 public:
  explicit CryptoSampler(std::uint64_t seed) : rng_(seed) {}
  void sample(int calls);
  [[nodiscard]] CryptoCosts costs() const;

 private:
  Rng rng_;
  std::vector<double> keygen_ns_, ecdh256_ns_, ecdh192_ns_;
};

/// Estimated scalar-multiplication time per operation. Assumes every
/// pairing side counted by lmp.pairings_started does one keygen and one
/// ECDH, on the curve its SSP initiator chose (P-256 when none was seen).
double crypto_us_per_op(const SimCounts& k, const CryptoCosts& c);

/// Capture every HCI frame crossing `transport` (H4 wire form) into
/// `frames` while it holds fewer than `cap`.
void tap_frames(transport::HciTransport& transport, std::vector<std::vector<std::uint8_t>>& frames,
                std::size_t cap);

/// HciPacket::from_wire / to_wire per frame over workload-derived frames.
struct CodecCosts {
  double decode_ns = 0, encode_ns = 0;
};
CodecCosts measure_hci_codec(const std::vector<std::vector<std::uint8_t>>& wires);

/// MetricsRegistry::add cost over the given counter names.
double measure_metrics_add_ns(const std::vector<std::string>& names);

/// Fills every per-layer metric name with 0 so each traced run prints the
/// full list; workloads overwrite what they measure.
void zero_per_layer(Metrics& m);

/// Per-layer self-time shares from the tracer, under `self_share.<layer>`.
void add_self_shares(Metrics& m, const Tracer& tracer);

// Workloads. Each fills `m` (end-to-end or per-layer, by opt.trace) and the
// loop accounting.
LoopResult run_table2_sweep(const Options& opt, Metrics& m);
LoopResult run_lossy_attack(const Options& opt, Metrics& m);
LoopResult run_fuzz_stack(const Options& opt, Metrics& m);
LoopResult run_fleet_scan(const Options& opt, Metrics& m);

/// The analytics per-layer metrics over a fleet written from opt.seed (the
/// same fleet fleet_scan scans), for traced runs of other workloads.
void add_analytics_layers(const Options& opt, Metrics& m, LoopResult& res);

}  // namespace blap::bench
