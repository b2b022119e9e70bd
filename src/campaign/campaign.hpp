// campaign.hpp — parallel Monte-Carlo trial campaigns.
//
// BLAP's evaluation numbers (Table II success rates, the race-model
// baselines, mitigation ablations) are estimates over hundreds of
// independent seeded trials. A Campaign runs such a batch across a worker
// thread pool while keeping the results bit-identical for ANY worker count:
//
//   * each trial's seed is a pure function of (root_seed, trial index) —
//     by default a SplitMix64 stream — so no trial ever observes which
//     thread or in which order it ran;
//   * trials write into a pre-sized results vector at their own index;
//     workers share nothing else but an atomic "next trial" counter (the
//     index-slot contract of run_indexed, the repo's one executor);
//   * aggregation (success counts, Wilson 95% CI, virtual-time histogram,
//     JSON/CSV emit) runs sequentially over the index-ordered results, so
//     the aggregate output is a pure function of the root seed.
//
// Wall-clock timing is recorded per trial for throughput reporting, but is
// deliberately excluded from to_json()/to_csv() — those must be
// byte-identical across re-runs and across BLAP_JOBS settings.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/scheduler.hpp"
#include "obs/obs.hpp"

namespace blap::campaign {

/// SplitMix64 step: advances `state` and returns the next output. Used both
/// as the default per-trial seed derivation and anywhere a cheap, well-mixed
/// 64-bit stream is needed.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless per-trial seed: the `index`-th output of the SplitMix64 stream
/// rooted at `root_seed`. Identical for every thread count by construction.
std::uint64_t trial_seed(std::uint64_t root_seed, std::uint64_t index);

/// Worker count resolution: explicit request > BLAP_JOBS env >
/// hardware_concurrency (min 1).
unsigned resolve_jobs(unsigned requested = 0);

namespace detail {

/// Hands out each index in [0, n) exactly once across threads.
class IndexCursor {
 public:
  explicit IndexCursor(std::size_t n) : n_(n) {}
  /// Claims the next unclaimed index into `i`; false once all are claimed.
  bool next(std::size_t& i);

 private:
  std::atomic<std::size_t> next_{0};
  std::size_t n_;
};

/// Runs `worker` on `workers` threads and joins them; inline on the calling
/// thread when `workers` is 1. The first exception a worker throws is
/// rethrown on the calling thread after every worker has joined.
void run_workers(unsigned workers, const std::function<void()>& worker);

}  // namespace detail

/// The repo's one executor: calls `fn(state, i)` once for every i in
/// [0, n) across min(max(jobs, 1), n) workers and returns that worker
/// count (0 when n is 0). The contract every caller builds on:
///   * index slots — `fn` writes its result at slot i and the caller merges
///     in index order, so output never depends on which worker ran what;
///   * per-worker state — `make_worker_state()` runs once per worker, on
///     that worker's thread, and the state dies when the worker finishes;
///   * inline at jobs == 1 — no thread is spawned, so thread-local caches
///     on the calling thread (the Scheduler's StoragePool) stay warm.
/// An exception from `fn` or `make_worker_state` reaches the caller at any
/// worker count; the other workers still drain their indices first.
template <typename MakeState, typename Fn>
unsigned run_indexed(std::size_t n, unsigned jobs, MakeState&& make_worker_state, Fn&& fn) {
  if (n == 0) return 0;
  const auto workers = static_cast<unsigned>(std::min<std::size_t>(std::max(jobs, 1u), n));
  detail::IndexCursor cursor(n);
  detail::run_workers(workers, [&] {
    auto state = make_worker_state();
    for (std::size_t i = 0; cursor.next(i);) fn(state, i);
  });
  return workers;
}

/// One trial's identity, handed to the trial function.
struct TrialSpec {
  std::size_t index = 0;
  std::uint64_t seed = 0;
};

/// What a trial reports back. `success` drives the rate/CI aggregation;
/// `value` is a free scalar (e.g. crack time) aggregated as a mean;
/// `virtual_end` is the simulation clock when the trial finished.
struct TrialResult {
  bool success = false;
  double value = 0.0;
  SimTime virtual_end = 0;
  /// Optional per-trial metrics snapshot (a trial that ran its Simulation
  /// with observability on fills this). Snapshots are merged index-ordered
  /// into CampaignSummary::metrics; shared_ptr keeps TrialResult cheap to
  /// move/copy for trials that don't use it.
  std::shared_ptr<const obs::MetricsSnapshot> metrics;
  // Filled in by the engine:
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::uint64_t wall_ns = 0;  // excluded from deterministic emits
};

using TrialFn = std::function<TrialResult(const TrialSpec&)>;
/// Builds one worker's trial body. Called once per worker, on that worker's
/// thread; whatever the body captures (a warm Scenario, say) is reused
/// trial to trial on that worker and freed when the campaign returns.
using WorkerTrialFactory = std::function<TrialFn()>;
/// Seed derivation hook: (root_seed, index) -> trial seed. The default is
/// trial_seed(); benches that predate the engine install `root + index` to
/// stay bit-compatible with their historical sequential seeding.
using SeedFn = std::function<std::uint64_t(std::uint64_t, std::size_t)>;

struct CampaignConfig {
  std::string label = "campaign";
  std::size_t trials = 100;
  std::uint64_t root_seed = 1;
  /// 0 = resolve_jobs() (BLAP_JOBS env, else hardware_concurrency).
  unsigned jobs = 0;
  SeedFn seed_fn;  // null = trial_seed (SplitMix64)
  std::size_t histogram_buckets = 12;
};

struct HistogramBucket {
  double lo = 0.0;
  double hi = 0.0;
  std::size_t count = 0;
};

struct Histogram {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::vector<HistogramBucket> buckets;
};

/// Equal-width histogram over `values`; empty input yields empty buckets.
Histogram make_histogram(const std::vector<double>& values, std::size_t bucket_count);

struct WilsonInterval {
  double low = 0.0;
  double high = 0.0;
};

/// Wilson score 95% confidence interval for a binomial proportion.
WilsonInterval wilson95(std::size_t successes, std::size_t trials);

struct CampaignSummary {
  std::string label;
  std::uint64_t root_seed = 0;
  std::size_t trials = 0;
  std::size_t successes = 0;
  double success_rate = 0.0;
  WilsonInterval ci;
  double value_mean = 0.0;
  Histogram virtual_time;  // over virtual_end, microseconds
  /// Merge of every trial's metrics snapshot (counters summed, gauges
  /// maxed, histogram buckets summed — all order-independent, so identical
  /// for any worker count). has_metrics gates the to_json() block.
  obs::MetricsSnapshot metrics;
  bool has_metrics = false;
  std::vector<TrialResult> results;  // index order

  // Throughput bookkeeping — never part of to_json()/to_csv().
  unsigned jobs_used = 1;
  std::uint64_t wall_total_ns = 0;  // whole-batch wall clock
  Histogram wall_time;              // per-trial wall ns

  /// Deterministic JSON: pure function of (label, root seed, trial results).
  /// With per_trial, includes an array of {index, seed, success, value,
  /// virtual_end_us} rows.
  [[nodiscard]] std::string to_json(bool per_trial = false) const;
  /// Deterministic CSV: one row per trial, header included.
  [[nodiscard]] std::string to_csv() const;
  /// Human-readable wall-clock/throughput report (NOT deterministic).
  [[nodiscard]] std::string timing_report() const;
};

/// Run `config.trials` independent trials of `fn` across a worker pool and
/// aggregate. `fn` must be safe to call concurrently from multiple threads
/// on distinct TrialSpecs (each trial should build its own Simulation from
/// spec.seed and share nothing).
CampaignSummary run_campaign(const CampaignConfig& config, const TrialFn& fn);

/// The same campaign with per-worker trial bodies: each worker runs the
/// TrialFn that `make_trial` built for it (see WorkerTrialFactory); seeds,
/// timing and aggregation are exactly run_campaign's.
CampaignSummary run_campaign(const CampaignConfig& config, const WorkerTrialFactory& make_trial);

}  // namespace blap::campaign
