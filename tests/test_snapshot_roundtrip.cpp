// Property test for snapshot serialization at arbitrary stop points.
//
// The serializer is only trustworthy if a capture→restore round-trip is
// invisible: a simulation that is serialized and deserialized mid-flight —
// mid-pairing, mid-ARQ-retransmission — must continue to EXACTLY the same
// future as a twin that was never touched. The test runs two identically
// built, identically seeded simulations:
//
//   * sim A runs the workload uninterrupted;
//   * sim B runs k scheduler events, takes a relaxed snapshot, immediately
//     restores it in place (a full serialize→parse→apply round-trip over
//     every component), then continues;
//
// and requires byte-identical outcomes for a sweep of k values: final
// virtual clock, pairing verdicts, the accessory's btsnoop bytes, metrics
// JSON, and a full relaxed re-capture of both end states.
#include <gtest/gtest.h>

#include "crypto/sha256.hpp"
#include "obs/obs.hpp"
#include "snapshot/chaos_trial.hpp"
#include "snapshot/fuzz_trial.hpp"
#include "snapshot/scenarios.hpp"
#include "snapshot/snapshot.hpp"

namespace blap::snapshot {
namespace {

constexpr SimTime kWindow = 30 * kSecond;

struct Workload {
  double loss = 0.0;  // > 0 puts the baseband ARQ mid-retransmission
};

struct Outcome {
  bool paired = false;
  hci::Status status = hci::Status::kSuccess;
  SimTime end = 0;
  Bytes accessory_snoop;
  std::string metrics_json;
  Bytes final_state;
};

Scenario start(const Workload& w) {
  ScenarioParams params;
  params.kind = ScenarioParams::Kind::kExtraction;
  params.profile_index = 5;
  Scenario s = build_scenario(1234, params);
  s.sim->enable_observability({.tracing = false, .metrics = true});
  if (w.loss > 0.0) {
    faults::FaultPlan plan;
    plan.seed = 42;
    plan.loss = w.loss;
    s.sim->set_fault_plan(plan);
  }
  return s;
}

// `paired`/`status` are written by the pair() completion callback while the
// simulation runs inside this function, so they must come in by reference.
Outcome finish(Scenario& s, const bool& paired, const hci::Status& status) {
  s.sim->scheduler().run_until(kWindow);
  s.sim->run_until_idle();
  Outcome o;
  o.paired = paired;
  o.status = status;
  o.end = s.sim->now();
  o.accessory_snoop = s.accessory->host().snoop().serialize();
  o.metrics_json = s.sim->observer()->snapshot().to_json();
  o.final_state = Snapshot::capture_relaxed(*s.sim).bytes();
  return o;
}

/// Uninterrupted reference run.
Outcome run_straight(const Workload& w) {
  Scenario s = start(w);
  bool paired = false;
  hci::Status status = hci::Status::kSuccess;
  s.accessory->host().pair(s.target->address(), [&](hci::Status st) {
    paired = true;
    status = st;
  });
  return finish(s, paired, status);
}

/// Same run, but serialized and restored in place after k events.
Outcome run_with_roundtrip(const Workload& w, int k) {
  Scenario s = start(w);
  bool paired = false;
  hci::Status status = hci::Status::kSuccess;
  s.accessory->host().pair(s.target->address(), [&](hci::Status st) {
    paired = true;
    status = st;
  });
  for (int i = 0; i < k && !s.sim->scheduler().idle(); ++i)
    (void)s.sim->scheduler().step();

  const Snapshot mid = Snapshot::capture_relaxed(*s.sim);
  EXPECT_FALSE(mid.strict());
  std::string why;
  // Round-trip through the parser too: bytes -> Snapshot -> apply.
  const auto reparsed = Snapshot::from_bytes(mid.bytes(), &why);
  EXPECT_TRUE(reparsed.has_value()) << why;
  if (!reparsed.has_value()) return Outcome{};
  EXPECT_TRUE(reparsed->restore_in_place(*s.sim, &why)) << "k=" << k << ": " << why;

  return finish(s, paired, status);
}

void expect_same(const Outcome& a, const Outcome& b, int k) {
  EXPECT_EQ(a.paired, b.paired) << "k=" << k;
  EXPECT_EQ(a.status, b.status) << "k=" << k;
  EXPECT_EQ(a.end, b.end) << "k=" << k;
  EXPECT_EQ(a.accessory_snoop, b.accessory_snoop) << "k=" << k;
  EXPECT_EQ(a.metrics_json, b.metrics_json) << "k=" << k;
  EXPECT_EQ(a.final_state, b.final_state) << "k=" << k;
}

// Capture points sweep the whole pairing: HCI bring-up tail, paging, the
// SSP public-key exchange, authentication, encryption start, idle-out.
constexpr int kStops[] = {1, 2, 3, 5, 8, 13, 21, 40, 75, 150, 300, 600, 1200};

TEST(SnapshotRoundTrip, MidPairingCapturePointsAreInvisible) {
  const Workload clean{};
  const Outcome reference = run_straight(clean);
  ASSERT_TRUE(reference.paired);
  EXPECT_EQ(reference.status, hci::Status::kSuccess);
  for (const int k : kStops) {
    const Outcome rt = run_with_roundtrip(clean, k);
    expect_same(reference, rt, k);
  }
}

TEST(SnapshotRoundTrip, MidArqCapturePointsAreInvisible) {
  // 35 % iid loss: ARQ retransmissions and supervision timers are live at
  // most capture points.
  const Workload lossy{.loss = 0.35};
  const Outcome reference = run_straight(lossy);
  for (const int k : kStops) {
    const Outcome rt = run_with_roundtrip(lossy, k);
    expect_same(reference, rt, k);
  }
}

// The relaxed end-state capture used above must itself be deterministic:
// two identical runs serialize to identical bytes (no pointer values, no
// hash order, no wall clock anywhere in the format).
TEST(SnapshotRoundTrip, SerializationIsCanonical) {
  const Workload clean{};
  const Outcome a = run_straight(clean);
  const Outcome b = run_straight(clean);
  EXPECT_EQ(a.final_state, b.final_state);
  EXPECT_EQ(a.accessory_snoop, b.accessory_snoop);
}

// ---------------------------------------------------------------------------
// Pinned snapshot bytes. The round-trip tests above compare two runs of the
// same build; these compare against digests recorded once, so any change to
// the wire layout (a field added, dropped, reordered or re-widened) fails
// here. A deliberate layout change bumps Snapshot::kVersion and re-records.
// Each capture point is chosen so the optional sections are populated: the
// SSP and legacy pairing contexts, a non-empty ARQ queue and per-link
// channel models.

std::string digest(const Snapshot& snap) {
  const auto d = crypto::Sha256::hash(snap.bytes());
  return hex(d);
}

bool saw_event(const core::Device& device, std::uint8_t code) {
  for (const auto& record : device.host().snoop().records())
    if (record.packet.type == hci::PacketType::kEvent && record.packet.event_code() == code)
      return true;
  return false;
}

/// Step `sim` one event at a time until `done()` holds; false if it never does.
template <typename Pred>
bool step_until(core::Simulation& sim, Pred done) {
  for (int i = 0; i < 100000; ++i) {
    if (done()) return true;
    if (sim.scheduler().idle()) return false;
    (void)sim.scheduler().step();
  }
  return false;
}

TEST(SnapshotBytes, StrictBondedWarmDigestIsPinned) {
  Scenario s = build_scenario(7, bonded_cell_params());
  bonded_warm_setup(s);
  std::string why;
  const auto warm = Snapshot::capture(*s.sim, &why);
  ASSERT_TRUE(warm.has_value()) << why;
  EXPECT_EQ(digest(*warm), "f6f3facb1500a7482d65a15f8c2cc83315c0fc76b875b17e88b92cfe6e9b2358");
}

TEST(SnapshotBytes, MidSspPairingDigestIsPinned) {
  Scenario s = start(Workload{});
  s.accessory->host().enable_snoop(true);
  s.target->host().enable_snoop(true);
  s.accessory->host().pair(s.target->address(), [](hci::Status) {});
  // A User_Confirmation_Request is raised with the SSP context fully open:
  // both public keys, nonces, commitment and DHKey are in place.
  ASSERT_TRUE(step_until(*s.sim, [&] {
    return saw_event(*s.accessory, hci::ev::kUserConfirmationRequest) &&
           saw_event(*s.target, hci::ev::kUserConfirmationRequest);
  }));
  EXPECT_EQ(digest(Snapshot::capture_relaxed(*s.sim)), "fec89ed50ba925ad957541c08891869594483c998ac3c49ce5cb477efd9adbd9");
}

TEST(SnapshotBytes, MidLegacyPairingDigestIsPinned) {
  core::Simulation sim(31);
  const auto legacy = [](const std::string& name, const std::string& addr) {
    core::DeviceSpec spec;
    spec.name = name;
    spec.address = *BdAddr::parse(addr);
    spec.host.simple_pairing = false;
    spec.host.pin_code = "1234";
    return spec;
  };
  core::Device& a = sim.add_device(legacy("old-phone", "00:00:00:00:00:01"));
  core::Device& b = sim.add_device(legacy("old-headset", "00:00:00:00:00:02"));
  a.host().enable_snoop(true);
  b.host().enable_snoop(true);
  a.host().pair(b.address(), [](hci::Status) {});
  // Both controllers hold a LegacyContext from their PIN_Code_Request until
  // the combination key is notified.
  ASSERT_TRUE(step_until(sim, [&] {
    return saw_event(a, hci::ev::kPinCodeRequest) && saw_event(b, hci::ev::kPinCodeRequest) &&
           !saw_event(a, hci::ev::kLinkKeyNotification);
  }));
  EXPECT_EQ(digest(Snapshot::capture_relaxed(sim)), "e18a5a87fa88b83bc467619de2d21830bedfcaac4a20df539deaf8afca1bee43");
}

TEST(SnapshotBytes, MidArqUnderLossDigestIsPinned) {
  Scenario s = start(Workload{.loss = 0.35});
  s.accessory->host().pair(s.target->address(), [](hci::Status) {});
  const auto queued = [&] {
    for (const auto& device : s.sim->devices())
      for (const auto& link : device->controller().audit_links())
        if (link.tx_queue_depth > 0) return true;
    return false;
  };
  ASSERT_TRUE(step_until(*s.sim, queued));
  ASSERT_TRUE(s.sim->medium().faults_enabled());
  EXPECT_EQ(digest(Snapshot::capture_relaxed(*s.sim)), "b797255a7bb7801fceb736fe13b7e23c1886cfe3b48d7b8ba1fef41664375848");
}

// --- fork restore into live storage -----------------------------------------
// A fork restore writes into the containers the simulation already holds:
// map nodes, vector elements, optional contexts and string buffers are
// reused, each element reset first. Each case below dirties a cell with a
// trial that leaves one kind of state behind, then requires (1) a restore
// followed by a strict capture to give back the warm bytes exactly, and
// (2) the next trial to run the same after that restore as after a restore
// onto a freshly built simulation.

struct Cell {
  std::function<Scenario()> build;
  std::function<void(Scenario&)> warm;
};

struct Next {
  FuzzStackReport report;
  bool paired = false;
  Bytes end_state;
};

Cell bonded_cell() {
  return {[] { return build_scenario(41, bonded_cell_params()); }, &bonded_warm_setup};
}

/// Two legacy (PIN) devices, the headset behind the USB transport.
Cell legacy_usb_cell() {
  return {[] {
            Scenario s;
            s.sim = std::make_unique<core::Simulation>(43);
            const auto legacy = [](const std::string& name, const std::string& addr,
                                   core::TransportKind transport) {
              core::DeviceSpec spec;
              spec.name = name;
              spec.address = *BdAddr::parse(addr);
              spec.transport = transport;
              spec.host.simple_pairing = false;
              spec.host.pin_code = "1234";
              return spec;
            };
            s.target =
                &s.sim->add_device(legacy("old-phone", "00:00:00:00:00:01", core::TransportKind::kUart));
            s.accessory =
                &s.sim->add_device(legacy("old-headset", "00:00:00:00:00:02", core::TransportKind::kUsb));
            return s;
          },
          [](Scenario& s) { s.sim->run_until_idle(); }};
}

faults::FaultPlan lossy_plan() {
  faults::FaultPlan plan;
  plan.seed = 5;
  plan.loss = 0.3;
  return plan;
}

/// Dirty trials, each stopped mid-flight so its state is still held.
void lossy_ssp_with_popup(Scenario& s) {
  s.sim->set_fault_plan(lossy_plan());
  s.target->host().enable_snoop(true);
  s.attacker->host().pair(s.target->address(), [](hci::Status) {});
  ASSERT_TRUE(step_until(*s.sim, [&] {
    return saw_event(*s.target, hci::ev::kUserConfirmationRequest);
  }));
}

void services_over_the_bond(Scenario& s) {
  s.accessory->host().enable_snoop(true);
  s.accessory->host().connect_hfp(s.target->address(), [](bool) {});
  s.accessory->host().read_messages(s.target->address(), [](const auto&) {});
  ASSERT_TRUE(step_until(*s.sim, [&] { return !s.accessory->host().acls().empty(); }));
  s.sim->run_for(kSecond / 5);
}

void stack_fuzz_trial(Scenario& s, const Snapshot& warm) {
  (void)run_fuzz_stack_trial(s, warm, 3, Bytes{7, 20, 0, 3, 0x05, 0x01, 0x00});
}

void legacy_pairing_under_loss(Scenario& s) {
  s.sim->set_fault_plan(lossy_plan());
  s.target->host().enable_snoop(true);
  s.accessory->host().enable_snoop(true);
  s.target->host().pair(s.accessory->address(), [](hci::Status) {});
  ASSERT_TRUE(step_until(*s.sim, [&] {
    return saw_event(*s.target, hci::ev::kPinCodeRequest) &&
           saw_event(*s.accessory, hci::ev::kPinCodeRequest);
  }));
}

Next next_stack_trial(Scenario& s, const Snapshot& warm) {
  Next out;
  out.report = run_fuzz_stack_trial(s, warm, 9, Bytes{2, 4, 1, 2, 3, 4, 7, 40, 3, 2, 9, 9});
  out.end_state = Snapshot::capture_relaxed(*s.sim).bytes();
  return out;
}

Next next_legacy_pairing(Scenario& s, const Snapshot& warm) {
  Next out;
  EXPECT_TRUE(warm.restore(*s.sim));
  s.sim->reseed(9);
  s.target->host().pair(s.accessory->address(),
                        [&out](hci::Status st) { out.paired = st == hci::Status::kSuccess; });
  s.sim->run_for(kWindow);
  out.end_state = Snapshot::capture_relaxed(*s.sim).bytes();
  return out;
}

void expect_same(const Next& reused, const Next& fresh) {
  EXPECT_EQ(reused.report.restored, fresh.report.restored);
  EXPECT_EQ(reused.report.ops_applied, fresh.report.ops_applied);
  EXPECT_EQ(reused.report.events, fresh.report.events);
  EXPECT_EQ(reused.report.runaway, fresh.report.runaway);
  EXPECT_EQ(reused.report.drained, fresh.report.drained);
  EXPECT_EQ(reused.report.virtual_end, fresh.report.virtual_end);
  EXPECT_EQ(reused.report.violations.size(), fresh.report.violations.size());
  EXPECT_EQ(reused.paired, fresh.paired);
  EXPECT_EQ(reused.end_state, fresh.end_state);
}

void check_fork(const Cell& cell, const std::function<void(Scenario&, const Snapshot&)>& dirty,
                const std::function<Next(Scenario&, const Snapshot&)>& next) {
  Scenario s = cell.build();
  cell.warm(s);
  std::string why;
  const auto warm = Snapshot::capture(*s.sim, &why);
  ASSERT_TRUE(warm.has_value()) << why;

  dirty(s, *warm);
  ASSERT_TRUE(warm->restore(*s.sim, &why)) << why;
  const auto again = Snapshot::capture(*s.sim, &why);
  ASSERT_TRUE(again.has_value()) << why;
  EXPECT_EQ(again->bytes(), warm->bytes());

  dirty(s, *warm);
  const Next reused = next(s, *warm);
  Scenario fresh = cell.build();
  expect_same(reused, next(fresh, *warm));
}

const auto kNoWarmArg = [](void (*trial)(Scenario&)) {
  return [trial](Scenario& s, const Snapshot&) { trial(s); };
};

TEST(ForkIntoLiveStorage, LossySspPairingWithPopup) {
  check_fork(bonded_cell(), kNoWarmArg(&lossy_ssp_with_popup), &next_stack_trial);
}

TEST(ForkIntoLiveStorage, AclL2capMapReadAndSnoop) {
  check_fork(bonded_cell(), kNoWarmArg(&services_over_the_bond), &next_stack_trial);
}

TEST(ForkIntoLiveStorage, StackFuzzTrial) {
  check_fork(bonded_cell(), &stack_fuzz_trial, &next_stack_trial);
}

TEST(ForkIntoLiveStorage, LegacyPairingOverUsbUnderLoss) {
  check_fork(legacy_usb_cell(), kNoWarmArg(&legacy_pairing_under_loss), &next_legacy_pairing);
}

}  // namespace
}  // namespace blap::snapshot
