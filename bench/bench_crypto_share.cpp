// Crypto-share gate: the fraction of a Table II trial spent in elliptic-curve
// scalar multiplication, required to stay below 0.8.
//
// Every Table II cell (7 victims x baseline race + page blocking) runs at one
// worker, and each trial (scenario build + attack) is timed. The trial is
// then replayed, untimed, with tracing on to count its SSP pairings and the
// initiator's curve for each (obs does not steer the simulation, so the
// replay pairs exactly as the timed trial did). After every cell the same
// process times keygen and ECDH on both curves. The share is
//
//   sum over pairings (2 keygens + 2 ECDHs on its curve) / sum of trial walls
//
// with the median sampled cost per call and, per cell, the median trial wall
// times the trial count (a burst of load from elsewhere on the host lengthens
// a few trials, not the median). Both sides of the ratio are taken in
// one process on one host, so it does not depend on the host's speed.
// BLAP_TRIALS sets the trials per cell (default 20). Exits non-zero when the
// share reaches 0.8: the generic 512-bit-product-and-divide field arithmetic
// measured 0.91-0.95 here, the Montgomery field type 0.71-0.74 (4-vCPU Xeon VM).
// The four multiplies still cost about 2.5 times the rest of a trial, so a
// bound of 0.5 would need P-256 keygen plus ECDH under about 50 us per side.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/rng.hpp"
#include "crypto/ecdh.hpp"

namespace {

using namespace blap;
using Clock = std::chrono::steady_clock;

constexpr double kMaxShare = 0.8;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

struct CurveCosts {
  std::vector<double> keygen_us, ecdh_us;
  [[nodiscard]] double pairing_us() const { return 2 * median(keygen_us) + 2 * median(ecdh_us); }
};

void sample(const crypto::EcCurve& curve, Rng& rng, CurveCosts& out, int calls) {
  for (int i = 0; i < calls; ++i) {
    auto t0 = Clock::now();
    const auto a = crypto::generate_keypair(curve, rng);
    out.keygen_us.push_back(us_since(t0));
    const auto b = crypto::generate_keypair(curve, rng);
    t0 = Clock::now();
    const auto shared = crypto::ecdh_shared_secret(curve, a.private_key, b.public_key);
    out.ecdh_us.push_back(us_since(t0));
    if (!shared) std::fprintf(stderr, "warning: ecdh rejected a generated point\n");
  }
}

bool run_trial(bench::Scenario& s, bool baseline) {
  if (baseline)
    return core::PageBlockingAttack::baseline_trial(*s.sim, *s.attacker, *s.accessory, *s.target);
  return core::PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory, *s.target, {})
      .mitm_established;
}

}  // namespace

int main() {
  const int trials = bench::trial_count(20);
  const auto& profiles = core::table2_profiles();
  const auto& p256 = crypto::EcCurve::p256();
  const auto& p192 = crypto::EcCurve::p192();
  Rng rng(1);
  CurveCosts cost256, cost192;

  bench::banner("Crypto share of a Table II trial");
  double trial_us = 0;
  double pairings256 = 0, pairings192 = 0;
  std::uint64_t seed = 10'000;
  for (std::size_t profile_index = 0; profile_index < profiles.size(); ++profile_index) {
    snapshot::ScenarioParams params;
    params.kind = snapshot::ScenarioParams::Kind::kAbc;
    params.table = snapshot::ProfileTable::kTable2;
    params.profile_index = profile_index;
    params.accessory_transport = core::TransportKind::kUart;
    params.accessory_has_dump = true;
    params.baseline_bias = profiles[profile_index].baseline_mitm_success;
    for (const bool baseline : {true, false}) {
      std::vector<double> walls;
      for (int t = 0; t < trials; ++t, ++seed) {
        const auto t0 = Clock::now();
        bench::Scenario timed = snapshot::build_scenario(seed, params);
        (void)run_trial(timed, baseline);
        walls.push_back(us_since(t0));

        bench::Scenario traced = snapshot::build_scenario(seed, params);
        const auto& observer = traced.sim->enable_observability({.tracing = true});
        (void)run_trial(traced, baseline);
        for (const auto& e : observer.recorder().events()) {
          if (e.phase != 'b' || e.name != "pairing") continue;
          if (e.args == "ssp initiator (P-256)") pairings256 += 1;
          else if (e.args == "ssp initiator (P-192)") pairings192 += 1;
        }
      }
      trial_us += median(walls) * trials;
      sample(p256, rng, cost256, 4);
      sample(p192, rng, cost192, 4);
    }
  }

  const double crypto_us = pairings256 * cost256.pairing_us() + pairings192 * cost192.pairing_us();
  const double share = trial_us > 0 ? crypto_us / trial_us : 0.0;
  const double total_trials = 2.0 * trials * static_cast<double>(profiles.size());
  std::printf("trials                 %.0f (%.0f P-256 and %.0f P-192 SSP pairings)\n",
              total_trials, pairings256, pairings192);
  std::printf("trial wall             %.1f us/trial (cell medians)\n", trial_us / total_trials);
  std::printf("P-256 keygen / ECDH    %.1f / %.1f us\n", median(cost256.keygen_us),
              median(cost256.ecdh_us));
  std::printf("P-192 keygen / ECDH    %.1f / %.1f us\n", median(cost192.keygen_us),
              median(cost192.ecdh_us));
  std::printf("scalar multiplies      %.1f us/trial\n", crypto_us / total_trials);
  std::printf("crypto share           %.3f (gate < %.1f): %s\n", share, kMaxShare,
              share < kMaxShare ? "PASS" : "FAIL");
  return share < kMaxShare ? 0 : 1;
}
