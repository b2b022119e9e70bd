// sim_workloads.cpp — table2_sweep and lossy_attack: campaigns of full
// simulations driven through campaign::run_campaign.
//
//   * table2_sweep: the paper's Table II, 7 victims × (baseline race +
//     page-blocking attack), 100 trials per cell, obs off, one rebuild per
//     trial. One unit is one cell. For seed 10000 the outputs are
//     exactly bench_table2_page_blocking's aggregate JSON.
//   * lossy_attack: page-blocking trials on Table II victim row 5 at 15 %
//     and 35 % iid channel loss with obs metrics on — bench_fault_sweep's
//     lossy cells. It exercises the fault layer, baseband ARQ and
//     supervision timers that a clean channel never touches.
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "core/page_blocking.hpp"
#include "core/profiles.hpp"
#include "faults/fault_plan.hpp"
#include "snapshot/scenarios.hpp"
#include "snapshot/snapshot.hpp"

namespace blap::bench {
namespace {

// Digests of the first cycle's outputs at each workload's default seed
// (SHA-256 over the concatenated per-unit aggregate JSON).
constexpr std::uint64_t kTable2DefaultSeed = 10'000;
constexpr const char* kTable2Digest =
    "890811fc0ead23c85c5a85d9abc28fc652d1559eef38c8362d760bee5d3b5e41";
constexpr std::uint64_t kLossyDefaultSeed = 77'000;
constexpr const char* kLossyDigest =
    "ee9d774c4f95a7ce7e8ff33fc2054c1675f38b6b6c935b2bee7156a020a1c3f9";

constexpr std::size_t kTrialsPerCell = 100;
/// HCI frames the traced run keeps for the codec microcalls.
constexpr std::size_t kMaxFrames = 4096;

struct Cell {
  std::string label;
  snapshot::ScenarioParams params;
  std::uint64_t root = 0;
  bool sequential_seeds = false;  // root + index, as the historical benches
  bool baseline = false;          // race trial instead of the PLOC attack
  double loss = 0.0;              // 0 leaves the fault layer untouched
  bool obs = false;               // metrics on and folded into the output
  double expected_rate = 1.0;     // baseline cells: the paper's rate
};

/// Trace-mode state shared by the traced trials (they run at 1 worker).
struct TraceState {
  Tracer tracer;
  SimCounts counts;
  obs::MetricsSnapshot metrics;
  std::vector<Bytes> frames;  // HCI frames tapped off the trials' transports
};

/// Side data the units collect for the per-layer metrics.
struct CampaignStats {
  std::vector<double> trial_us;         // 1-worker trial wall times
  std::vector<double> pool_efficiency;  // per par campaign
};

snapshot::ScenarioParams table2_params(std::size_t profile_index) {
  const auto& profile = core::table2_profiles()[profile_index];
  snapshot::ScenarioParams p;
  p.kind = snapshot::ScenarioParams::Kind::kAbc;
  p.table = snapshot::ProfileTable::kTable2;
  p.profile_index = profile_index;
  p.accessory_transport = core::TransportKind::kUart;
  p.accessory_has_dump = true;
  p.baseline_bias = profile.baseline_mitm_success;
  return p;
}

campaign::TrialResult sim_trial(const Cell& c, const campaign::TrialSpec& spec,
                                TraceState* ts, bool perturb) {
  std::uint64_t op = 0, root = 0;
  if (ts != nullptr) {
    op = ts->tracer.new_op();
    root = ts->tracer.begin(op, 0, "trial");
  }
  snapshot::Scenario s;
  const auto build = [&] { s = snapshot::build_scenario(spec.seed, c.params); };
  if (ts != nullptr) ts->tracer.span(op, root, "scenario.build", build);
  else build();

  obs::Observer* o = nullptr;
  if (c.obs || ts != nullptr)
    o = &s.sim->enable_observability({.tracing = ts != nullptr, .metrics = true});
  if (c.loss > 0.0) {
    faults::FaultPlan plan;
    plan.seed = spec.seed;
    plan.loss = c.loss;
    s.sim->set_fault_plan(plan);
  }
  if (ts != nullptr && ts->frames.size() < kMaxFrames)
    for (auto& dev : s.sim->devices()) tap_frames(dev->transport(), ts->frames, kMaxFrames);
  campaign::TrialResult r;
  const auto attack = [&] {
    if (c.baseline)
      r.success = core::PageBlockingAttack::baseline_trial(*s.sim, *s.attacker, *s.accessory,
                                                           *s.target);
    else
      r.success = core::PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target,
                                                {})
                      .mitm_established;
  };
  if (ts != nullptr) ts->tracer.span(op, root, "attack.run", attack);
  else attack();
  r.virtual_end = s.sim->now();

  if (o != nullptr) {
    auto snap = std::make_shared<obs::MetricsSnapshot>(o->snapshot());
    if (perturb && spec.index == 0) snap->counters["arq.retransmissions"] += 1;
    if (ts != nullptr) {
      ts->counts.add(*snap, &o->recorder());
      ts->metrics.merge_from(*snap);
    }
    if (c.obs) r.metrics = std::move(snap);
  }
  if (perturb && spec.index == 0 && !c.obs) r.value += 1.0;
  if (ts != nullptr) ts->tracer.end(root);
  return r;
}

campaign::CampaignSummary run_cell(const Cell& c, unsigned jobs, TraceState* ts,
                                   bool perturb) {
  campaign::CampaignConfig cfg;
  cfg.label = c.label;
  cfg.trials = kTrialsPerCell;
  cfg.root_seed = c.root;
  cfg.jobs = jobs;
  if (c.sequential_seeds)
    cfg.seed_fn = [](std::uint64_t root, std::size_t index) { return root + index; };
  return campaign::run_campaign(cfg, [&](const campaign::TrialSpec& spec) {
    return sim_trial(c, spec, ts, perturb);
  });
}

/// Shape check of one cell's summary; empty when it holds.
std::string cell_shape(const Cell& c, const campaign::CampaignSummary& s) {
  if (c.baseline) {
    // Same band as bench_table2_page_blocking: 3.5 sigma, floored at 15 points.
    const double p = c.expected_rate;
    const double sigma = 100.0 * std::sqrt(p * (1.0 - p) / static_cast<double>(s.trials));
    if (std::abs(100.0 * s.success_rate - 100.0 * p) > std::max(15.0, 3.5 * sigma))
      return c.label + ": baseline rate " + std::to_string(s.success_rate) +
             " outside the binomial band";
    return {};
  }
  if (c.loss == 0.0) {
    if (s.success_rate < 1.0)
      return c.label + ": page blocking below 100 % (" + std::to_string(s.success_rate) + ")";
    return {};
  }
  // Lossy cells: losses really happen and the ARQ is engaged.
  for (const char* key : {"radio.faults.loss", "arq.retransmissions"}) {
    const auto it = s.metrics.counters.find(key);
    if (it == s.metrics.counters.end() || it->second == 0)
      return c.label + ": counter " + key + " is zero on a lossy channel";
  }
  return {};
}

/// The shared runner: one unit per cell.
LoopResult run_sim_workload(const std::vector<Cell>& cells, const Options& opt,
                            const std::string& pinned, Metrics& m) {
  CampaignStats stats;
  std::vector<Unit> units;
  for (std::size_t u = 0; u < cells.size(); ++u) {
    units.push_back({cells[u].label, [&, u](unsigned jobs, std::size_t pass) {
                       const Cell& c = cells[u];
                       const bool perturb =
                           opt.perturb == Perturb::kOpCount && u == 0 && pass == 0 && jobs == 1;
                       const auto s = run_cell(c, jobs, nullptr, perturb);
                       UnitRun run;
                       run.ops = s.trials;
                       run.output = s.to_json(c.obs);
                       run.shape_error = cell_shape(c, s);
                       run.shape_ok = run.shape_error.empty();
                       if (jobs == 1) {
                         for (const auto& t : s.results)
                           stats.trial_us.push_back(static_cast<double>(t.wall_ns) * 1e-3);
                       } else if (s.wall_total_ns > 0) {
                         double busy = 0;
                         for (const auto& t : s.results) busy += static_cast<double>(t.wall_ns);
                         stats.pool_efficiency.push_back(
                             busy / (static_cast<double>(s.jobs_used) *
                                     static_cast<double>(s.wall_total_ns)));
                       }
                       return run;
                     }});
  }

  // Setup: build every cell's warm point (scenario + strict snapshot) and
  // run one warm-up trial per cell, so lazy state (profile tables, curve
  // constants, allocator pools) is in place before timing starts.
  const auto setup = [&] {
    for (const Cell& c : cells) {
      auto s = snapshot::build_scenario(c.root, c.params);
      if (!snapshot::Snapshot::capture(*s.sim))
        std::fprintf(stderr, "warning: %s warm point is not quiescent\n", c.label.c_str());
      (void)sim_trial(c, {0, c.root}, nullptr, false);
    }
  };

  // The traced run checks one cycle, then measures it again cell by cell.
  Options loop_opt = opt;
  if (opt.trace) loop_opt.seconds = 0;
  LoopResult res = run_loop(units, loop_opt, pinned, setup, setup);

  if (!opt.trace) {
    m.set("ops_per_s", res.ops_per_s, "ops/s");
    m.set("ops_per_s_par", res.ops_per_s_par, "ops/s");
    m.set("setup_s", res.setup_s, "s");
    return res;
  }

  // Traced pass, cell by cell at 1 worker: an untraced rerun, the same cell
  // with spans at the layer calls (its outputs must equal the untraced ones:
  // obs does not steer the simulation), and a crypto microcall sample — so
  // each ratio below compares figures taken within seconds of each other on
  // a host whose speed drifts.
  TraceState ts;
  CryptoSampler crypto(opt.seed);
  stats.trial_us.clear();
  double untraced_s = 0, traced_s = 0;
  for (std::size_t u = 0; u < cells.size(); ++u) {
    const Cell& c = cells[u];
    std::uint64_t t0 = now_ns();
    const UnitRun again = units[u].run(1, 1);
    untraced_s += static_cast<double>(now_ns() - t0) * 1e-9;
    t0 = now_ns();
    const auto s = run_cell(c, 1, &ts, false);
    traced_s += static_cast<double>(now_ns() - t0) * 1e-9;
    res.attempted += 2 * s.trials;
    if (s.to_json(c.obs) != res.outputs[u] || again.output != res.outputs[u]) {
      res.failed += 2 * s.trials;
      res.correct = false;
      res.errors.push_back(c.label + ": traced or rerun output differs from the first cycle");
    }
    crypto.sample(8);
  }

  const SimCounts& k = ts.counts;
  const CryptoCosts cc = crypto.costs();
  const double trial_p50 = percentile(stats.trial_us, 50);
  const double mults_per_op = 2.0 * k.pairings / k.ops;
  m.set("crypto.p256_keygen_us", cc.p256_keygen_us, "us");
  m.set("crypto.p256_ecdh_us", cc.p256_ecdh_us, "us");
  m.set("crypto.p192_ecdh_us", cc.p192_ecdh_us, "us");
  m.set("crypto.scalar_mults_per_op", mults_per_op, "count");
  m.set("crypto.share", trial_p50 > 0 ? crypto_us_per_op(k, cc) / trial_p50 : 0.0, "ratio");
  m.set("campaign.trial_us_p50", trial_p50, "us");
  m.set("campaign.trial_us_p99", percentile(stats.trial_us, 99), "us");
  m.set("campaign.pool_efficiency", median(stats.pool_efficiency), "ratio");
  const double attack_us = median(ts.tracer.durations("attack.run")) * 1e-3;
  m.set("scenario.build_us", median(ts.tracer.durations("scenario.build")) * 1e-3, "us");
  m.set("attack.run_us", attack_us, "us");
  m.set("sched.events_per_op", k.events / k.ops, "count");
  {
    double attack_ns = 0;
    for (const double d : ts.tracer.durations("attack.run")) attack_ns += d;
    m.set("sched.host_ns_per_event", k.events > 0 ? attack_ns / k.events : 0.0, "ns");
  }
  m.set("radio.pages_per_op", k.pages / k.ops, "count");
  m.set("lmp.pdus_per_op", k.lmp_pdus / k.ops, "count");
  m.set("hci.packets_per_op", k.hci_packets / k.ops, "count");
  m.set("faults.drops_per_op", k.drops / k.ops, "count");
  m.set("arq.retx_per_op", k.retx / k.ops, "count");
  m.set("controller.supervision_timeouts_per_op", k.supervision_timeouts / k.ops, "count");
  const CodecCosts hc = measure_hci_codec(ts.frames);
  m.set("hci.decode_ns", hc.decode_ns, "ns");
  m.set("hci.encode_ns", hc.encode_ns, "ns");
  {
    // The first cell's warm point through capture and restore, next to
    // scenario.build_us: what fork mode pays per trial instead of a build.
    const Cell& c = cells.front();
    auto s = snapshot::build_scenario(c.root, c.params);
    std::vector<double> cap, rest;
    std::optional<snapshot::Snapshot> warm;
    for (int i = 0; i < 50; ++i) {
      std::uint64_t t = now_ns();
      warm = snapshot::Snapshot::capture(*s.sim);
      cap.push_back(static_cast<double>(now_ns() - t));
      if (!warm) break;
      t = now_ns();
      if (!warm->restore(*s.sim)) break;
      rest.push_back(static_cast<double>(now_ns() - t));
    }
    m.set("snapshot.capture_us", median(cap) * 1e-3, "us");
    m.set("snapshot.restore_us", median(rest) * 1e-3, "us");
  }
  std::vector<std::string> names;
  for (const auto& [name, v] : ts.metrics.counters) names.push_back(name);
  m.set("obs.metrics_add_ns", measure_metrics_add_ns(names), "ns");
  m.set("tracing_overhead", untraced_s / traced_s, "ratio");
  add_self_shares(m, ts.tracer);
  std::fprintf(stderr,
               "crypto.share assumes each pairing side (lmp.pairings_started) does one keygen "
               "and one ECDH on its initiator's curve: %.2f sides/op, %.0f P-256 and %.0f "
               "P-192 SSP initiations\n",
               k.pairings / k.ops, k.ssp_p256, k.ssp_p192);
  ts.tracer.write(opt.workdir + "/spans-" + opt.workload + ".jsonl");
  return res;
}

}  // namespace

LoopResult run_table2_sweep(const Options& opt, Metrics& m) {
  std::vector<Cell> cells;
  const auto& profiles = core::table2_profiles();
  std::uint64_t root = opt.seed;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    Cell base;
    base.label = profiles[i].model + " baseline";
    base.params = table2_params(i);
    base.root = root;
    base.sequential_seeds = true;
    base.baseline = true;
    base.expected_rate = profiles[i].baseline_mitm_success;
    root += kTrialsPerCell;
    Cell attack = base;
    attack.label = profiles[i].model + " page blocking";
    attack.root = root;
    attack.baseline = false;
    root += kTrialsPerCell;
    cells.push_back(base);
    cells.push_back(attack);
  }
  return run_sim_workload(cells, opt, opt.seed == kTable2DefaultSeed ? kTable2Digest : "", m);
}

LoopResult run_lossy_attack(const Options& opt, Metrics& m) {
  // bench_fault_sweep's grid roots cells at seed + 1e6 × grid index; 15 %
  // and 35 % are grid points 2 and 3.
  constexpr std::size_t kProfileIndex = 5;
  std::vector<Cell> cells;
  for (const auto& [loss, grid] : {std::pair{0.15, 2}, std::pair{0.35, 3}}) {
    Cell c;
    c.label = "page blocking loss=" + std::to_string(loss);
    c.params = table2_params(kProfileIndex);
    c.root = opt.seed + static_cast<std::uint64_t>(grid) * 1'000'000;
    c.loss = loss;
    c.obs = true;
    cells.push_back(c);
  }
  LoopResult res =
      run_sim_workload(cells, opt, opt.seed == kLossyDefaultSeed ? kLossyDigest : "", m);
  // fleet_scan is not a gated workload (see METRICS.md), so the analytics
  // layers are traced here.
  if (opt.trace) add_analytics_layers(opt, m, res);
  return res;
}

}  // namespace blap::bench
