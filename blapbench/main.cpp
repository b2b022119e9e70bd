// blapbench — the repository benchmark.
//
//   blapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--perturb flip-byte|op-count|truncate-capture]
//
// Workloads: table2_sweep, fuzz_stack, fleet_scan, lossy_attack. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A human-readable report goes to stderr. Exit status is 0 when
// the run completed, whatever the checks said (the JSON carries that);
// usage errors exit 2.
#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <thread>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/ecdh.hpp"
#include "crypto/sha256.hpp"
#include "hci/packets.hpp"

namespace blap::bench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

std::string sha256_hex(const std::string& text) {
  const auto digest = crypto::Sha256::hash(
      BytesView(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  return hex(digest);
}

LoopResult run_loop(const std::vector<Unit>& units, const Options& opt,
                    const std::string& pinned_digest, const std::function<void()>& setup,
                    const std::function<void()>& repeat_setup) {
  LoopResult res;
  std::vector<double> setups;
  const auto timed = [&setups](const std::function<void()>& fn) {
    const std::uint64_t t0 = now_ns();
    fn();
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  };
  timed(setup);
  const std::size_t k = units.size();
  std::vector<std::vector<double>> wall1(k), wallp(k);
  std::vector<std::string> first(k);
  std::vector<std::uint64_t> unit_ops(k, 0);
  const std::uint64_t start = now_ns();
  const auto span_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  const auto deadline = start + span_ns;
  for (std::size_t round = 0;; ++round) {
    const std::size_t i = round % k;
    const std::size_t pass = round / k;
    // Setup repeats due by now: the j-th at j/kSetupRepeats of the phase.
    while (setups.size() < static_cast<std::size_t>(kSetupRepeats) &&
           now_ns() - start >= span_ns / kSetupRepeats * setups.size())
      timed(repeat_setup);
    if (round >= k && now_ns() >= deadline) break;

    std::uint64_t t0 = now_ns();
    UnitRun one = units[i].run(1, pass);
    wall1[i].push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    t0 = now_ns();
    const UnitRun par = units[i].run(opt.par_jobs, pass);
    wallp[i].push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (pass == 0 && opt.perturb == Perturb::kFlipByte && i == 0 && !one.output.empty())
      one.output[one.output.size() / 2] ^= 0x01;

    std::string error;
    if (!one.shape_ok) error = one.shape_error;
    else if (!par.shape_ok) error = par.shape_error;
    else if (one.output != par.output)
      error = "1-worker and " + std::to_string(opt.par_jobs) + "-worker outputs differ";
    else if (pass > 0 && one.output != first[i])
      error = "output differs from the first repetition";
    if (pass == 0) {
      first[i] = one.output;
      unit_ops[i] = one.ops;
    }
    res.attempted += one.ops + par.ops;
    if (!error.empty()) {
      res.failed += one.ops + par.ops;
      res.correct = false;
      res.errors.push_back(units[i].label + ": " + error);
    }
    if (pass == 0 && i + 1 == k) {
      std::string all;
      for (const auto& out : first) all += out;
      res.digest = sha256_hex(all);
      res.outputs = first;
      if (!pinned_digest.empty() && res.digest != pinned_digest) {
        // The whole first cycle is one deterministic output: all its ops fail.
        std::uint64_t cycle_ops = 0;
        for (const auto n : unit_ops) cycle_ops += 2 * n;
        res.failed = std::min(res.attempted, res.failed + cycle_ops);
        res.correct = false;
        res.errors.push_back("default-seed digest " + res.digest + " != pinned " +
                             pinned_digest);
      }
    }
  }
  while (setups.size() < static_cast<std::size_t>(kSetupRepeats)) timed(repeat_setup);
  res.setup_s = median(setups);
  double ops = 0, w1 = 0, wp = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const auto [lo1, hi1] = std::minmax_element(wall1[i].begin(), wall1[i].end());
    const auto [lop, hip] = std::minmax_element(wallp[i].begin(), wallp[i].end());
    std::fprintf(stderr,
                 "  %-32s x%-3zu 1 worker %8.4f s [median %.4f, max %.4f]  "
                 "par %8.4f s [median %.4f, max %.4f]\n",
                 units[i].label.c_str(), wall1[i].size(), *lo1, median(wall1[i]), *hi1, *lop,
                 median(wallp[i]), *hip);
    ops += static_cast<double>(unit_ops[i]);
    w1 += *lo1;
    wp += *lop;
  }
  res.ops_per_s = w1 > 0 ? ops / w1 : 0.0;
  res.ops_per_s_par = wp > 0 ? ops / wp : 0.0;
  return res;
}

// --- Tracer -----------------------------------------------------------------

std::uint64_t Tracer::new_op() {
  const std::lock_guard lock(mu_);
  return next_op_++;
}

std::uint64_t Tracer::begin(std::uint64_t op, std::uint64_t parent, std::string name) {
  const std::uint64_t t = now_ns();
  const std::lock_guard lock(mu_);
  spans_.push_back({op, next_id_, parent, std::move(name), t, 0});
  return next_id_++;
}

void Tracer::end(std::uint64_t id) {
  const std::uint64_t t = now_ns();
  const std::lock_guard lock(mu_);
  // Spans close in LIFO order, so the open span is near the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it)
    if (it->id == id) {
      it->end_ns = t;
      return;
    }
}

std::uint64_t Tracer::span(std::uint64_t op, std::uint64_t parent, std::string name,
                           const std::function<void()>& fn) {
  const std::uint64_t id = begin(op, parent, std::move(name));
  const std::uint64_t t0 = now_ns();
  fn();
  const std::uint64_t dt = now_ns() - t0;
  end(id);
  return dt;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name && s.end_ns >= s.start_ns)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

std::map<std::string, double> Tracer::self_ns() const {
  std::map<std::uint64_t, double> child_ns;
  for (const auto& s : spans_)
    if (s.parent != 0) child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, double> out;
  for (const auto& s : spans_)
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) - child_ns[s.id];
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  for (const auto& s : spans_)
    f << "{\"op\":" << s.op << ",\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << "}\n";
  return static_cast<bool>(f);
}

// --- layer counts and microcalls ---------------------------------------------

void SimCounts::add(const obs::MetricsSnapshot& m, const obs::TraceRecorder* trace) {
  const auto c = [&m](std::string_view key) {
    const auto it = m.counters.find(key);
    return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  ops += 1;
  events += c("scheduler.events_dispatched");
  pages += c("radio.pages");
  lmp_pdus += c("lmp.tx");
  hci_packets += c("hci.cmd.total") + c("hci.evt.total") + c("hci.acl.tx");
  pairings += c("lmp.pairings_started");
  drops += c("radio.faults.loss");
  retx += c("arq.retransmissions");
  supervision_timeouts += c("controller.supervision_timeouts");
  if (trace == nullptr) return;
  for (const auto& e : trace->events()) {
    if (e.phase != 'b' || e.name != "pairing") continue;
    if (e.args == "ssp initiator (P-256)") ssp_p256 += 1;
    else if (e.args == "ssp initiator (P-192)") ssp_p192 += 1;
  }
}

double crypto_us_per_op(const SimCounts& k, const CryptoCosts& c) {
  if (k.ops <= 0) return 0.0;
  const double ssp = k.ssp_p256 + k.ssp_p192;
  const double f256 = ssp > 0 ? k.ssp_p256 / ssp : 1.0;
  const double us_per_mult =
      f256 * 0.5 * (c.p256_keygen_us + c.p256_ecdh_us) + (1.0 - f256) * c.p192_ecdh_us;
  return 2.0 * k.pairings / k.ops * us_per_mult;
}

void tap_frames(transport::HciTransport& transport, std::vector<Bytes>& frames,
                std::size_t cap) {
  transport.add_tap([&frames, cap](hci::Direction, const hci::HciPacket& p) {
    if (frames.size() < cap) frames.push_back(p.to_wire());
  });
}

void CryptoSampler::sample(int calls) {
  const auto& p256 = crypto::EcCurve::p256();
  const auto& p192 = crypto::EcCurve::p192();
  for (int i = 0; i < calls; ++i) {
    std::uint64_t t0 = now_ns();
    const auto a = crypto::generate_keypair(p256, rng_);
    keygen_ns_.push_back(static_cast<double>(now_ns() - t0));
    const auto b = crypto::generate_keypair(p256, rng_);
    t0 = now_ns();
    const auto s = crypto::ecdh_shared_secret(p256, a.private_key, b.public_key);
    ecdh256_ns_.push_back(static_cast<double>(now_ns() - t0));
    const auto x = crypto::generate_keypair(p192, rng_);
    const auto y = crypto::generate_keypair(p192, rng_);
    t0 = now_ns();
    const auto t = crypto::ecdh_shared_secret(p192, x.private_key, y.public_key);
    ecdh192_ns_.push_back(static_cast<double>(now_ns() - t0));
    if (!s || !t) std::fprintf(stderr, "warning: ecdh microcall rejected a point\n");
  }
}

CryptoCosts CryptoSampler::costs() const {
  return {median(keygen_ns_) * 1e-3, median(ecdh256_ns_) * 1e-3, median(ecdh192_ns_) * 1e-3};
}

CodecCosts measure_hci_codec(const std::vector<Bytes>& wires) {
  CodecCosts c;
  if (wires.empty()) return c;
  std::vector<hci::HciPacket> packets;
  packets.reserve(wires.size());
  // Enough passes that the sample spans a few milliseconds.
  const std::size_t passes = std::max<std::size_t>(1, 20'000 / wires.size());
  std::uint64_t t0 = now_ns();
  for (std::size_t p = 0; p < passes; ++p) {
    packets.clear();
    for (const auto& w : wires)
      if (auto pkt = hci::HciPacket::from_wire(w)) packets.push_back(std::move(*pkt));
  }
  const double frames = static_cast<double>(passes * wires.size());
  c.decode_ns = static_cast<double>(now_ns() - t0) / frames;
  std::size_t bytes = 0;
  t0 = now_ns();
  for (std::size_t p = 0; p < passes; ++p)
    for (const auto& pkt : packets) bytes += pkt.to_wire().size();
  c.encode_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(passes * packets.size());
  if (bytes == 0) std::fprintf(stderr, "warning: hci encode produced no bytes\n");
  return c;
}

double measure_metrics_add_ns(const std::vector<std::string>& names) {
  if (names.empty()) return 0.0;
  obs::MetricsRegistry reg;
  const std::size_t passes = std::max<std::size_t>(1, 200'000 / names.size());
  const std::uint64_t t0 = now_ns();
  for (std::size_t p = 0; p < passes; ++p)
    for (const auto& n : names) reg.add(n);
  const double ns = static_cast<double>(now_ns() - t0) /
                    static_cast<double>(passes * names.size());
  if (reg.counter(names.front()) != passes) std::fprintf(stderr, "warning: add count\n");
  return ns;
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per-layer metric list, in BENCHMARK.json order.
constexpr LayerMetric kPerLayer[] = {
    {"crypto.p256_keygen_us", "us"},
    {"crypto.p256_ecdh_us", "us"},
    {"crypto.p192_ecdh_us", "us"},
    {"crypto.scalar_mults_per_op", "count"},
    {"crypto.share", "ratio"},
    {"campaign.trial_us_p50", "us"},
    {"campaign.trial_us_p99", "us"},
    {"campaign.pool_efficiency", "ratio"},
    {"scenario.build_us", "us"},
    {"attack.run_us", "us"},
    {"sched.events_per_op", "count"},
    {"sched.host_ns_per_event", "ns"},
    {"radio.pages_per_op", "count"},
    {"lmp.pdus_per_op", "count"},
    {"hci.packets_per_op", "count"},
    {"faults.drops_per_op", "count"},
    {"arq.retx_per_op", "count"},
    {"controller.supervision_timeouts_per_op", "count"},
    {"hci.decode_ns", "ns"},
    {"hci.encode_ns", "ns"},
    {"snapshot.restore_us", "us"},
    {"snapshot.capture_us", "us"},
    {"fuzz.exec_us_p50", "us"},
    {"fuzz.exec_us_p99", "us"},
    {"fuzz.engine_share", "ratio"},
    {"fuzz.new_coverage_ratio", "ratio"},
    {"invariants.violations", "count"},
    {"analytics.open_us", "us"},
    {"analytics.cursor_gb_per_s", "GB/s"},
    {"analytics.detect_gb_per_s", "GB/s"},
    {"analytics.file_us_p50", "us"},
    {"analytics.file_us_p99", "us"},
    {"analytics.pool_efficiency", "ratio"},
    {"tracing_overhead", "ratio"},
    {"obs.metrics_add_ns", "ns"},
    {"self_share.op", "ratio"},
    {"self_share.scenario.build", "ratio"},
    {"self_share.attack.run", "ratio"},
    {"self_share.fuzz.execute", "ratio"},
    {"self_share.analytics.analyze_file", "ratio"},
    {"self_share.analytics.open", "ratio"},
    {"self_share.hci.cursor", "ratio"},
    {"self_share.analytics.detect", "ratio"},
};

// Root spans of the three operation kinds; their self time is reported as
// self_share.op.
constexpr std::string_view kRootSpans[] = {"trial", "execution", "file"};

}  // namespace

void zero_per_layer(Metrics& m) {
  for (const auto& lm : kPerLayer) m.set(lm.name, 0.0, lm.unit);
}

void add_self_shares(Metrics& m, const Tracer& tracer) {
  const auto self = tracer.self_ns();
  double total = 0;
  for (const auto& [name, ns] : self) total += ns;
  if (total <= 0) return;
  double root = 0;
  for (const auto& [name, ns] : self) {
    if (std::find(std::begin(kRootSpans), std::end(kRootSpans), name) !=
        std::end(kRootSpans)) {
      root += ns;
      continue;
    }
    const std::string key = "self_share." + name;
    if (m.values.count(key) != 0) m.set(key, ns / total, "ratio");
  }
  m.set("self_share.op", root / total, "ratio");
  std::fprintf(stderr, "self time per span (share of traced op time):\n");
  for (const auto& [name, ns] : self)
    std::fprintf(stderr, "  %-28s %8.3f ms  %6.1f%%\n", name.c_str(), ns * 1e-6,
                 100.0 * ns / total);
}

}  // namespace blap::bench

namespace {

using namespace blap::bench;

int usage(const char* why) {
  std::fprintf(stderr,
               "blapbench: %s\nusage: blapbench --workload <table2_sweep|fuzz_stack|"
               "fleet_scan|lossy_attack> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--perturb flip-byte|op-count|truncate-capture]\n",
               why);
  return 2;
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss would also count the launching process's peak from before
/// exec.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  return 0.0;
}

void print_result(const LoopResult& r, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, vu] : m.values) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), vu.first, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) return usage("missing value for the last flag");
    const char* v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") opt.seconds = std::atof(v);
    else if (a == "--trace") opt.trace = std::string_view(v) == "1";
    else if (a == "--workdir") opt.workdir = v;
    else if (a == "--perturb") {
      const std::string_view p = v;
      if (p == "flip-byte") opt.perturb = Perturb::kFlipByte;
      else if (p == "op-count") opt.perturb = Perturb::kOpCount;
      else if (p == "truncate-capture") opt.perturb = Perturb::kTruncateCapture;
      else return usage("unknown --perturb");
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_seed || opt.workdir.empty() || opt.seconds <= 0)
    return usage("--seed, --seconds and --workdir are required");
  std::error_code ec;
  std::filesystem::create_directories(opt.workdir, ec);
  if (ec) return usage("cannot create --workdir");
  // Filling every hardware thread makes the parallel figure measure whatever
  // else the host runs on them: on a 4-vCPU shared host the fuzz_stack
  // parallel spread fell from 0.13 at 4 workers to 0.02 at 3.
  opt.par_jobs = std::clamp(std::thread::hardware_concurrency(), 2u, 5u) - 1;

  Metrics m;
  if (opt.trace) zero_per_layer(m);
  LoopResult r;
  if (opt.workload == "table2_sweep") r = run_table2_sweep(opt, m);
  else if (opt.workload == "lossy_attack") r = run_lossy_attack(opt, m);
  else if (opt.workload == "fuzz_stack") r = run_fuzz_stack(opt, m);
  else if (opt.workload == "fleet_scan") r = run_fleet_scan(opt, m);
  else return usage("unknown --workload");

  if (!opt.trace) m.set("peak_rss_mb", peak_rss_mb(), "MB");
  for (const auto& e : r.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  std::fprintf(stderr,
               "%s seed=%llu: %llu ops attempted, %llu failed (failed_share %.4f), "
               "digest %s, %u par workers\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed),
               r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                               : 0.0,
               r.digest.c_str(), opt.par_jobs);
  print_result(r, m);
  return 0;
}
