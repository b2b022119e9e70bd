// fuzz_workload.cpp — fuzz_stack: stack-target fuzz campaigns through
// fuzz::run_fuzz_campaign, 4 shards, each execution a fork of the warm
// bonded-cell snapshot. No scalar multiplication runs per execution (the
// bonding happens once per shard target), so a crypto change must leave
// this workload flat.
#include "bench.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/targets.hpp"
#include "snapshot/chaos_trial.hpp"
#include "snapshot/scenarios.hpp"

namespace blap::bench {
namespace {

constexpr std::uint64_t kFuzzDefaultSeed = 1;
constexpr const char* kFuzzDigest =
    "267390fc65177ccf0b12b0120e235b80a0c7628cf2ccea6b126ea4cd2c856579";
constexpr std::size_t kShards = 4;
constexpr std::size_t kIterationsPerShard = 10000;
/// Direct executions the traced run times, per pass.
constexpr std::size_t kTracedExecs = 4000;

}  // namespace

LoopResult run_fuzz_stack(const Options& opt, Metrics& m) {
  fuzz::FuzzReport first_report;
  bool have_report = false;
  const std::vector<Unit> units = {
      {"stack fuzz campaign", [&](unsigned jobs, std::size_t) {
         fuzz::FuzzConfig cfg;
         cfg.target = "stack";
         cfg.seed = opt.seed;
         cfg.iterations = kIterationsPerShard;
         cfg.shards = kShards;
         cfg.jobs = jobs;
         std::string why;
         const auto report = fuzz::run_fuzz_campaign(cfg, &why);
         UnitRun run;
         if (!report) {
           run.shape_ok = false;
           run.shape_error = "fuzz campaign failed: " + why;
           return run;
         }
         run.ops = report->executions;
         run.output = report->to_json();
         if (!report->findings.empty()) {
           run.shape_ok = false;
           run.shape_error = std::to_string(report->findings.size()) +
                             " oracle finding(s), first: " + report->findings.front().kind;
         }
         if (!have_report) {
           first_report = *report;
           have_report = true;
         }
         return run;
       }}};

  // Setup: build the bonded cell and capture its warm snapshot — the state
  // every execution forks from (a full SSP bonding).
  std::unique_ptr<fuzz::StackTarget> target;
  LoopResult res = run_loop(
      units, opt, opt.seed == kFuzzDefaultSeed ? kFuzzDigest : "",
      [&] { target = std::make_unique<fuzz::StackTarget>(); },
      [] { const fuzz::StackTarget again; });
  if (!opt.trace) {
    m.set("ops_per_s", res.ops_per_s, "ops/s");
    m.set("ops_per_s_par", res.ops_per_s_par, "ops/s");
    m.set("setup_s", res.setup_s, "s");
    return res;
  }

  // Traced run: direct FuzzTarget::execute calls on mutants of the
  // campaign's own corpus, untraced then traced with obs metrics on.
  std::vector<Bytes> inputs;
  {
    fuzz::Mutator mutator(opt.seed);
    const auto& pool = first_report.corpus.entries();
    for (std::size_t i = 0; i < kTracedExecs && !pool.empty(); ++i)
      inputs.push_back(mutator.mutate(pool[i % pool.size()], pool, target->max_input_len()));
  }
  // One more 1-worker campaign right before the direct loop, so
  // fuzz.engine_share compares figures taken seconds apart.
  const std::uint64_t c0 = now_ns();
  (void)units.front().run(1, 1);
  const double campaign_s = static_cast<double>(now_ns() - c0) * 1e-9;
  std::vector<double> untraced_ns;
  std::vector<std::string> untraced_kinds;
  for (const Bytes& in : inputs) {
    fuzz::FeatureSink sink;
    const std::uint64_t t0 = now_ns();
    const auto r = target->execute(in, sink);
    untraced_ns.push_back(static_cast<double>(now_ns() - t0));
    untraced_kinds.push_back(r.kind);
  }

  Tracer tracer;
  SimCounts counts;
  obs::MetricsSnapshot merged;
  auto& o = target->scenario().sim->enable_observability({.tracing = false, .metrics = true});
  std::size_t violations = 0;
  const std::uint64_t traced_start = now_ns();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::uint64_t op = tracer.new_op();
    const std::uint64_t root = tracer.begin(op, 0, "execution");
    fuzz::FeatureSink sink;
    fuzz::ExecResult r;
    tracer.span(op, root, "fuzz.execute", [&] { r = target->execute(inputs[i], sink); });
    const auto snap = o.snapshot();
    counts.add(snap, nullptr);
    merged.merge_from(snap);
    tracer.end(root);
    if (r.kind == "invariant-violation") ++violations;
    res.attempted += 1;
    if (r.finding || r.kind != untraced_kinds[i]) {
      res.failed += 1;
      res.correct = false;
      res.errors.push_back("traced execution " + std::to_string(i) + ": " +
                           (r.finding ? "finding " + r.kind : "verdict changed under obs"));
    }
  }
  const double traced_s = static_cast<double>(now_ns() - traced_start) * 1e-9;
  for (const auto& f : first_report.findings)
    if (f.kind == "invariant-violation") ++violations;

  // The fuzz capture: every HCI frame of one bonded-cell build, its
  // bonding warm-up and a replay of the first corpus entries (no restore),
  // with obs on to count the bonding's pairings and their curve.
  SimCounts bond;
  std::vector<Bytes> frames;
  std::vector<double> builds;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t0 = now_ns();
    auto s = snapshot::build_scenario(fuzz::kStackSeed, snapshot::bonded_cell_params());
    builds.push_back(static_cast<double>(now_ns() - t0));
    if (i > 0) continue;
    auto& bo = s.sim->enable_observability({.tracing = true, .metrics = true});
    for (auto& dev : s.sim->devices()) tap_frames(dev->transport(), frames, 4096);
    snapshot::bonded_warm_setup(s);
    bond.add(bo.snapshot(), &bo.recorder());
    const auto& entries = first_report.corpus.entries();
    for (std::size_t e = 0; e < entries.size() && e < 16; ++e)
      (void)snapshot::run_fuzz_stack_trial_no_restore(s, fuzz::kStackSeed, entries[e]);
  }

  // Per execution: the executions' own pairings plus each shard target's
  // bonding, amortised over the campaign.
  const double execs = static_cast<double>(first_report.executions);
  const double amortise = static_cast<double>(kShards) / execs;
  SimCounts per_exec = counts;
  per_exec.pairings += bond.pairings * amortise * counts.ops;
  per_exec.ssp_p256 += bond.ssp_p256;
  per_exec.ssp_p192 += bond.ssp_p192;
  CryptoSampler crypto(opt.seed);
  crypto.sample(24);
  const CryptoCosts cc = crypto.costs();
  const double op_us = 1e6 / res.ops_per_s;
  m.set("crypto.p256_keygen_us", cc.p256_keygen_us, "us");
  m.set("crypto.p256_ecdh_us", cc.p256_ecdh_us, "us");
  m.set("crypto.p192_ecdh_us", cc.p192_ecdh_us, "us");
  m.set("crypto.scalar_mults_per_op", 2.0 * per_exec.pairings / per_exec.ops, "count");
  m.set("crypto.share", crypto_us_per_op(per_exec, cc) / op_us, "ratio");
  m.set("scenario.build_us", median(builds) * 1e-3, "us");
  m.set("sched.events_per_op", counts.events / counts.ops, "count");
  {
    double exec_ns = 0;
    for (const double d : tracer.durations("fuzz.execute")) exec_ns += d;
    m.set("sched.host_ns_per_event", counts.events > 0 ? exec_ns / counts.events : 0.0, "ns");
  }
  m.set("radio.pages_per_op", counts.pages / counts.ops, "count");
  m.set("lmp.pdus_per_op", counts.lmp_pdus / counts.ops, "count");
  m.set("hci.packets_per_op", counts.hci_packets / counts.ops, "count");
  m.set("faults.drops_per_op", counts.drops / counts.ops, "count");
  m.set("arq.retx_per_op", counts.retx / counts.ops, "count");
  m.set("controller.supervision_timeouts_per_op", counts.supervision_timeouts / counts.ops,
        "count");

  const CodecCosts hc = measure_hci_codec(frames);
  m.set("hci.decode_ns", hc.decode_ns, "ns");
  m.set("hci.encode_ns", hc.encode_ns, "ns");
  {
    // The same warm snapshot the executions fork from.
    auto& sim = *target->scenario().sim;
    std::vector<double> rest, cap;
    for (int i = 0; i < 200; ++i) {
      std::uint64_t t0 = now_ns();
      if (!target->warm().restore(sim)) break;
      rest.push_back(static_cast<double>(now_ns() - t0));
      t0 = now_ns();
      if (!snapshot::Snapshot::capture(sim)) break;
      cap.push_back(static_cast<double>(now_ns() - t0));
    }
    m.set("snapshot.restore_us", median(rest) * 1e-3, "us");
    m.set("snapshot.capture_us", median(cap) * 1e-3, "us");
  }
  const auto exec = tracer.durations("fuzz.execute");
  m.set("fuzz.exec_us_p50", percentile(exec, 50) * 1e-3, "us");
  m.set("fuzz.exec_us_p99", percentile(exec, 99) * 1e-3, "us");
  {
    double sum = 0;
    for (const double d : untraced_ns) sum += d;
    const double mean_exec_s =
        untraced_ns.empty() ? 0.0 : sum * 1e-9 / static_cast<double>(untraced_ns.size());
    m.set("fuzz.engine_share", 1.0 - execs * mean_exec_s / campaign_s, "ratio");
    m.set("tracing_overhead", traced_s > 0 ? sum * 1e-9 / traced_s : 0.0, "ratio");
  }
  m.set("fuzz.new_coverage_ratio", static_cast<double>(first_report.corpus.size()) / execs,
        "ratio");
  m.set("invariants.violations", static_cast<double>(violations), "count");
  std::vector<std::string> names;
  for (const auto& [name, v] : merged.counters) names.push_back(name);
  m.set("obs.metrics_add_ns", measure_metrics_add_ns(names), "ns");
  add_self_shares(m, tracer);
  std::fprintf(stderr,
               "crypto.share assumes each pairing side (lmp.pairings_started) does one keygen "
               "and one ECDH on its initiator's curve; %zu shards x %.0f bonding sides "
               "amortised over %.0f executions\n",
               kShards, bond.pairings, execs);
  tracer.write(opt.workdir + "/spans-" + opt.workload + ".jsonl");
  return res;
}

}  // namespace blap::bench
