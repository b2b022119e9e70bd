// Unit tests for the snapshot layer: capture discipline, validation-before-
// mutation, the scenario/bundle text codecs, and the fork campaign's
// equivalence contract (restore + reseed == fresh build, byte for byte).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/state_io.hpp"
#include "core/page_blocking.hpp"
#include "snapshot/chaos_trial.hpp"
#include "snapshot/fork_campaign.hpp"
#include "snapshot/replay.hpp"
#include "snapshot/snapshot.hpp"

namespace blap::snapshot {
namespace {

ScenarioParams abc_params(std::size_t profile_index = 5) {
  ScenarioParams p;
  p.kind = ScenarioParams::Kind::kAbc;
  p.table = ProfileTable::kTable2;
  p.profile_index = profile_index;
  p.accessory_transport = core::TransportKind::kUart;
  p.accessory_has_dump = true;
  p.baseline_bias = core::table2_profiles()[profile_index].baseline_mitm_success;
  return p;
}

ScenarioParams extraction_params() {
  ScenarioParams p;
  p.kind = ScenarioParams::Kind::kExtraction;
  p.profile_index = 5;
  return p;
}

// --- state_io skip -----------------------------------------------------------

TEST(StateIo, SkipAdvancesAndBoundsChecks) {
  state::StateWriter w;
  w.u32(0xAAAAAAAA);
  w.u32(0xBBBBBBBB);
  w.u64(0x1122334455667788ULL);
  const Bytes data = w.take();

  state::StateReader r(data);
  r.skip(8);  // past both u32s
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.remaining(), 0u);

  state::StateReader r2(data);
  r2.skip(17);  // one past the end
  EXPECT_FALSE(r2.ok());
}

// --- capture discipline ------------------------------------------------------

TEST(Snapshot, StrictCaptureRequiresQuiescence) {
  Scenario s = build_scenario(1, abc_params());
  std::string why;
  ASSERT_TRUE(Snapshot::capture(*s.sim, &why).has_value()) << why;

  // A pending pair operation (events queued, host op in flight) blocks the
  // strict capture with a diagnosable reason.
  s.accessory->host().pair(s.target->address(), [](hci::Status) {});
  const auto blocked = Snapshot::capture(*s.sim, &why);
  EXPECT_FALSE(blocked.has_value());
  EXPECT_FALSE(why.empty());

  // Relaxed capture works at the same point.
  const Snapshot relaxed = Snapshot::capture_relaxed(*s.sim);
  EXPECT_FALSE(relaxed.strict());
  EXPECT_FALSE(relaxed.bytes().empty());
}

TEST(Snapshot, RestoreReseedEqualsFreshBuild) {
  const ScenarioParams params = abc_params();
  Scenario warm = build_scenario(100, params);
  std::string why;
  const auto snap = Snapshot::capture(*warm.sim, &why);
  ASSERT_TRUE(snap.has_value()) << why;

  // Restore + reseed must reproduce a fresh build with the trial seed,
  // byte for byte — the fork engine's whole contract.
  ASSERT_TRUE(snap->restore(*warm.sim, &why)) << why;
  warm.sim->reseed(777);
  const auto forked = Snapshot::capture(*warm.sim, &why);
  ASSERT_TRUE(forked.has_value()) << why;

  Scenario fresh = build_scenario(777, params);
  const auto built = Snapshot::capture(*fresh.sim, &why);
  ASSERT_TRUE(built.has_value()) << why;
  EXPECT_EQ(forked->bytes(), built->bytes());
}

TEST(Snapshot, RelaxedSnapshotCannotRewind) {
  Scenario s = build_scenario(2, abc_params());
  const Snapshot relaxed = Snapshot::capture_relaxed(*s.sim);
  std::string why;
  EXPECT_FALSE(relaxed.restore(*s.sim, &why));
  EXPECT_FALSE(why.empty());
}

TEST(Snapshot, InPlaceRestoreDemandsTheCaptureInstant) {
  Scenario s = build_scenario(3, abc_params());
  s.accessory->host().pair(s.target->address(), [](hci::Status) {});
  for (int i = 0; i < 10; ++i) (void)s.sim->scheduler().step();
  const Snapshot mid = Snapshot::capture_relaxed(*s.sim);

  std::string why;
  ASSERT_TRUE(mid.restore_in_place(*s.sim, &why)) << why;  // same instant: fine

  s.sim->run_for(5 * kSecond);
  EXPECT_FALSE(mid.restore_in_place(*s.sim, &why));  // clock moved on
  EXPECT_FALSE(why.empty());
}

TEST(Snapshot, TopologyMismatchLeavesSimulationUntouched) {
  Scenario uart = build_scenario(4, abc_params());
  ScenarioParams usb = abc_params();
  usb.accessory_transport = core::TransportKind::kUsb;
  Scenario other = build_scenario(4, usb);

  std::string why;
  const auto snap = Snapshot::capture(*uart.sim, &why);
  ASSERT_TRUE(snap.has_value()) << why;

  const auto before = Snapshot::capture(*other.sim, &why);
  ASSERT_TRUE(before.has_value()) << why;
  EXPECT_FALSE(snap->restore(*other.sim, &why));  // transport kinds differ
  EXPECT_FALSE(why.empty());
  const auto after = Snapshot::capture(*other.sim, &why);
  ASSERT_TRUE(after.has_value()) << why;
  EXPECT_EQ(before->bytes(), after->bytes());  // validation did not mutate
}

// --- structural validation ---------------------------------------------------

TEST(Snapshot, FromBytesRejectsCorruptInput) {
  Scenario s = build_scenario(5, abc_params());
  std::string why;
  const auto snap = Snapshot::capture(*s.sim, &why);
  ASSERT_TRUE(snap.has_value()) << why;
  const Bytes& good = snap->bytes();
  ASSERT_TRUE(Snapshot::from_bytes(good, &why).has_value()) << why;

  Bytes bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(Snapshot::from_bytes(bad_magic, &why).has_value());

  Bytes bad_version = good;
  bad_version[8] ^= 0xFF;  // little-endian u32 version follows the magic
  EXPECT_FALSE(Snapshot::from_bytes(bad_version, &why).has_value());

  // Every strict prefix must be rejected (section lengths run past the
  // end); so must trailing garbage.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{9},
                          good.size() / 2, good.size() - 1}) {
    Bytes truncated(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(Snapshot::from_bytes(truncated, &why).has_value())
        << "prefix of " << cut << " bytes parsed";
  }
  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(Snapshot::from_bytes(trailing, &why).has_value());
}

// A count field is untrusted input: a huge element count must fail the
// restore with a typed error, not size an allocation from it.
TEST(Snapshot, CraftedCountFailsRestoreWithoutThrowing) {
  Scenario s = build_scenario(8, bonded_cell_params());
  bonded_warm_setup(s);
  std::string why;
  const auto warm = Snapshot::capture(*s.sim, &why);
  ASSERT_TRUE(warm.has_value()) << why;
  Bytes crafted = warm->bytes();

  // Walk to the medium's attached-endpoint count: header, SIM section, then
  // the MEDM fields ahead of it (clock/link-id/rng words, the disabled fault
  // plan with no jam windows, the sniffer count).
  state::StateReader r(crafted);
  r.skip(Snapshot::kMagic.size() + 4 + 1);
  r.skip(r.expect_section(state::tag('S', 'I', 'M', ' ')));
  r.expect_section(state::tag('M', 'E', 'D', 'M'));
  r.skip(8 + 8 + 4 * 8);         // frame latency, next link id, rng
  r.skip(8 + 8 + 1 + 4 * 8 + 8);  // fault plan
  r.skip(8);                      // sniffer count
  ASSERT_TRUE(r.ok());
  const std::size_t at = crafted.size() - r.remaining();
  ASSERT_EQ(r.u64(), s.sim->devices().size());  // the field found is the count
  const std::uint64_t huge = std::uint64_t{1} << 44;
  for (std::size_t i = 0; i < 8; ++i)
    crafted[at + i] = static_cast<std::uint8_t>(huge >> (8 * i));

  // Structurally the snapshot is intact (sections only), so it parses...
  const auto parsed = Snapshot::from_bytes(crafted, &why);
  ASSERT_TRUE(parsed.has_value()) << why;
  // ...and the restore itself must refuse it.
  Scenario target = build_scenario(8, bonded_cell_params());
  why.clear();
  bool restored = true;
  EXPECT_NO_THROW(restored = parsed->restore(*target.sim, &why));
  EXPECT_FALSE(restored);
  EXPECT_FALSE(why.empty());
}

TEST(Snapshot, FileRoundTrip) {
  Scenario s = build_scenario(6, abc_params());
  std::string why;
  const auto snap = Snapshot::capture(*s.sim, &why);
  ASSERT_TRUE(snap.has_value()) << why;

  const std::string path =
      (std::filesystem::temp_directory_path() / "blap_test_snapshot.blapsnap").string();
  ASSERT_TRUE(snap->save_file(path));
  const auto loaded = Snapshot::load_file(path, &why);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value()) << why;
  EXPECT_EQ(loaded->bytes(), snap->bytes());
  EXPECT_EQ(loaded->strict(), snap->strict());
  EXPECT_EQ(loaded->captured_at(), snap->captured_at());
}

// --- scenario codec ----------------------------------------------------------

TEST(ScenarioCodec, RoundTrips) {
  for (const ScenarioParams& p :
       {abc_params(0), abc_params(5), extraction_params(), [] {
          ScenarioParams q = abc_params(3);
          q.accessory_transport = core::TransportKind::kUsb;
          q.accessory_has_dump = false;
          q.baseline_bias = 0.123456789012345;
          return q;
        }()}) {
    const std::string text = encode_scenario(p);
    const auto back = decode_scenario(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(*back, p) << text;
  }
}

TEST(ScenarioCodec, RejectsMalformedManifests) {
  EXPECT_FALSE(decode_scenario("").has_value());
  EXPECT_FALSE(decode_scenario("table=2 profile=5").has_value());  // no kind
  EXPECT_FALSE(decode_scenario("kind=abc bogus=1").has_value());   // unknown key
  EXPECT_FALSE(decode_scenario("kind=abc table=2 profile=9999").has_value());
  EXPECT_FALSE(decode_scenario("kind=warp").has_value());
}

// --- replay bundle codec -----------------------------------------------------

TEST(ReplayBundleCodec, RoundTrips) {
  ReplayBundle b;
  b.scenario = abc_params();
  b.build_seed = 424242;
  b.trial_index = 17;
  b.trial_seed = 0xDEADBEEFCAFEF00DULL;
  b.trial_kind = "page_blocking_attack_metrics";
  faults::FaultPlan plan;
  plan.seed = 99;
  plan.loss = 0.35;
  b.fault_plan = plan;
  b.expected_success = true;
  b.expected_value = 0.25;
  b.expected_virtual_end = 30030000;
  b.expected_metrics_json = "{\n  \"counters\": {}\n}";
  b.snapshot = {0x42, 0x4C, 0x41, 0x50, 0x00, 0xFF};

  std::string why;
  const auto back = ReplayBundle::from_text(b.to_text(), &why);
  ASSERT_TRUE(back.has_value()) << why;
  EXPECT_EQ(back->scenario, b.scenario);
  EXPECT_EQ(back->build_seed, b.build_seed);
  EXPECT_EQ(back->trial_index, b.trial_index);
  EXPECT_EQ(back->trial_seed, b.trial_seed);
  EXPECT_EQ(back->trial_kind, b.trial_kind);
  ASSERT_TRUE(back->fault_plan.has_value());
  EXPECT_EQ(back->fault_plan->seed, plan.seed);
  EXPECT_EQ(back->fault_plan->loss, plan.loss);
  EXPECT_EQ(back->expected_success, b.expected_success);
  EXPECT_EQ(back->expected_value, b.expected_value);
  EXPECT_EQ(back->expected_virtual_end, b.expected_virtual_end);
  EXPECT_EQ(back->expected_metrics_json, b.expected_metrics_json);
  EXPECT_EQ(back->snapshot, b.snapshot);
}

TEST(ReplayBundleCodec, RejectsMalformedText) {
  std::string why;
  EXPECT_FALSE(ReplayBundle::from_text("", &why).has_value());
  EXPECT_FALSE(ReplayBundle::from_text("not-a-bundle\n", &why).has_value());

  ReplayBundle b;
  b.scenario = abc_params();
  b.trial_kind = "page_blocking_baseline";
  b.snapshot = {1, 2, 3};
  const std::string good = b.to_text();
  EXPECT_TRUE(ReplayBundle::from_text(good, &why).has_value()) << why;
  EXPECT_FALSE(ReplayBundle::from_text("bogus_key: 1\n" + good, &why).has_value());
}

TEST(Replay, KnownTrialKinds) {
  EXPECT_TRUE(known_trial_kind("page_blocking_baseline"));
  EXPECT_TRUE(known_trial_kind("page_blocking_attack"));
  EXPECT_TRUE(known_trial_kind("page_blocking_attack_metrics"));
  EXPECT_FALSE(known_trial_kind("warp_drive"));
  EXPECT_FALSE(known_trial_kind(""));
}

// --- fork campaign -----------------------------------------------------------

campaign::TrialResult baseline_body(const campaign::TrialSpec&, Scenario& s) {
  campaign::TrialResult r;
  r.success =
      core::PageBlockingAttack::baseline_trial(*s.sim, *s.attacker, *s.accessory, *s.target);
  r.virtual_end = s.sim->now();
  return r;
}

TEST(ForkCampaign, MatchesRebuildPathByteForByte) {
  const ScenarioParams params = abc_params();
  campaign::CampaignConfig cfg;
  cfg.label = "fork equivalence";
  cfg.trials = 8;
  cfg.root_seed = 4242;

  const auto rebuild = campaign::run_campaign(cfg, [&](const campaign::TrialSpec& spec) {
    Scenario s = build_scenario(spec.seed, params);
    return baseline_body(spec, s);
  });
  ForkStats stats;
  const auto fork = run_fork_campaign(cfg, params, baseline_body, nullptr, &stats);
  EXPECT_TRUE(stats.fork_used) << stats.fallback_reason;
  EXPECT_EQ(rebuild.to_json(true), fork.to_json(true));
}

TEST(ForkCampaign, BackToBackCampaignsShareNoWarmScenario) {
  // Worker scenarios live only as long as their run_fork_campaign() call:
  // a second campaign on the same thread, with different parameters, must
  // still match its own rebuild path — inline (jobs 1) and pooled (jobs 2).
  for (const unsigned jobs : {1u, 2u}) {
    for (const std::size_t profile : {std::size_t{5}, std::size_t{1}}) {
      const ScenarioParams params = abc_params(profile);
      campaign::CampaignConfig cfg;
      cfg.label = "back to back";
      cfg.trials = 6;
      cfg.root_seed = 1000 + profile;
      cfg.jobs = jobs;

      const auto rebuild = campaign::run_campaign(cfg, [&](const campaign::TrialSpec& spec) {
        Scenario s = build_scenario(spec.seed, params);
        return baseline_body(spec, s);
      });
      ForkStats stats;
      const auto fork = run_fork_campaign(cfg, params, baseline_body, nullptr, &stats);
      EXPECT_TRUE(stats.fork_used) << stats.fallback_reason;
      EXPECT_EQ(rebuild.to_json(true), fork.to_json(true))
          << "jobs " << jobs << ", profile " << profile;
    }
  }
}

TEST(ForkCampaign, WarmSetupSharesAnExpensivePrefix) {
  // Warm-up: bond C to M. The per-trial body then reuses the bond. The fork
  // path must match the rebuild path (build + warm-up + reseed) exactly.
  const ScenarioParams params = extraction_params();
  const WarmSetupFn warm = [](Scenario& s) {
    s.accessory->host().pair(s.target->address(), [](hci::Status) {});
    s.sim->run_for(30 * kSecond);
    s.sim->run_until_idle();
  };
  const ForkTrialFn body = [](const campaign::TrialSpec&, Scenario& s) {
    bool validated = false;
    s.accessory->host().connect_pan(s.target->address(),
                                    [&validated](bool ok) { validated = ok; });
    s.sim->run_for(5 * kSecond);
    campaign::TrialResult r;
    r.success = validated;
    r.virtual_end = s.sim->now();
    return r;
  };

  campaign::CampaignConfig cfg;
  cfg.label = "warm fork equivalence";
  cfg.trials = 6;
  cfg.root_seed = 999;

  const auto rebuild = campaign::run_campaign(cfg, [&](const campaign::TrialSpec& spec) {
    Scenario s = build_scenario(cfg.root_seed, params);
    warm(s);
    s.sim->reseed(spec.seed);
    return body(spec, s);
  });
  ForkStats stats;
  const auto fork = run_fork_campaign(cfg, params, body, nullptr, &stats, warm);
  EXPECT_TRUE(stats.fork_used) << stats.fallback_reason;
  EXPECT_EQ(rebuild.to_json(true), fork.to_json(true));
  EXPECT_EQ(fork.success_rate, 1.0);  // the bond validates every trial
}

TEST(ForkCampaign, FallsBackWhenWarmPointIsNotQuiescent) {
  // A warm-up that leaves an event in flight makes the strict capture
  // impossible; the runner must fall back to per-trial rebuilds and still
  // produce the same aggregates as the manual rebuild path.
  const ScenarioParams params = abc_params();
  const WarmSetupFn bad_warm = [](Scenario& s) {
    s.sim->scheduler().schedule_in(kSecond, [] {});
  };
  const ForkTrialFn body = [](const campaign::TrialSpec&, Scenario& s) {
    s.sim->run_for(2 * kSecond);
    campaign::TrialResult r;
    r.success = true;
    r.virtual_end = s.sim->now();
    return r;
  };

  campaign::CampaignConfig cfg;
  cfg.label = "fallback";
  cfg.trials = 4;
  cfg.root_seed = 77;

  ForkStats stats;
  const auto fork = run_fork_campaign(cfg, params, body, nullptr, &stats, bad_warm);
  EXPECT_FALSE(stats.fork_used);
  EXPECT_FALSE(stats.fallback_reason.empty());

  const auto rebuild = campaign::run_campaign(cfg, [&](const campaign::TrialSpec& spec) {
    Scenario s = build_scenario(cfg.root_seed, params);
    bad_warm(s);
    s.sim->reseed(spec.seed);
    return body(spec, s);
  });
  EXPECT_EQ(rebuild.to_json(true), fork.to_json(true));
}

TEST(ForkCampaign, RecordsFailureBundlesThatReplay) {
  const ScenarioParams params = abc_params();
  campaign::CampaignConfig cfg;
  cfg.label = "record";
  cfg.trials = 20;
  cfg.root_seed = 31337;

  const auto dir =
      (std::filesystem::temp_directory_path() / "blap_test_record").string();
  std::filesystem::remove_all(dir);
  RecordOptions rec;
  rec.dir = dir;
  rec.trial_kind = "page_blocking_baseline";
  rec.limit = 2;
  ForkStats stats;
  const auto summary = run_fork_campaign(cfg, params, baseline_body, &rec, &stats);
  ASSERT_TRUE(stats.fork_used) << stats.fallback_reason;
  ASSERT_FALSE(stats.bundle_paths.empty());  // baselines do fail sometimes
  EXPECT_LE(stats.bundle_paths.size(), rec.limit);
  EXPECT_LT(summary.success_rate, 1.0);

  for (const std::string& path : stats.bundle_paths) {
    std::string why;
    const auto bundle = ReplayBundle::load_file(path, &why);
    ASSERT_TRUE(bundle.has_value()) << path << ": " << why;
    const ReplayOutcome outcome = replay_bundle(*bundle, /*want_trace=*/false);
    EXPECT_TRUE(outcome.executed) << outcome.error;
    EXPECT_TRUE(outcome.reproduced()) << path;
    EXPECT_TRUE(outcome.snapshot_matches) << path;
    EXPECT_FALSE(bundle->expected_success);  // default predicate records failures
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace blap::snapshot
