// fleet_workload.cpp — fleet_scan: analytics::analyze_files over a fleet of
// btsnoop captures written during setup. The fleet mixes the simulator's
// labelled corpus (generate_corpus, all seven classes — detector ground
// truth) with ACL-dominated session captures of log-uniform spread sizes,
// so both per-file open/mmap cost and streaming cursor/detector cost show,
// and at ops_per_s_par the slowest file bounds the batch. No simulator runs
// in the timed loop.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>

#include "analytics/corpus.hpp"
#include "analytics/detector.hpp"
#include "analytics/fleet.hpp"
#include "analytics/mapped_file.hpp"
#include "bench.hpp"
#include "common/bdaddr.hpp"
#include "common/rng.hpp"
#include "hci/events.hpp"
#include "hci/snoop.hpp"

namespace blap::bench {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFleetDefaultSeed = 1;
constexpr const char* kFleetDigest =
    "8cb5f08bbd7b4ab8d42de388a9a3d36220f692a5bcfecb55a429cf31cc86c5b8";
constexpr std::size_t kFilesPerClass = 4;
constexpr std::size_t kSessions = 128;
/// Every capture appears under this many names (hard links): many devices
/// report near-identical captures, and a scan then does enough work to
/// amortise the worker pool's start-up while the bytes stay cache-resident.
constexpr std::size_t kCopies = 8;
constexpr double kMinRecords = 10, kMaxRecords = 200;

/// Session `i` of kSessions: a connection, then ACL traffic in both
/// directions. Record counts follow a fixed log-uniform ladder so the fleet's
/// size does not depend on the seed; payload sizes and bytes come from `rng`.
Bytes session_capture(std::size_t i, Rng& rng) {
  const double step = (static_cast<double>(i) + 0.5) / static_cast<double>(kSessions);
  const auto records = static_cast<std::size_t>(
      std::exp(std::log(kMinRecords) + step * std::log(kMaxRecords / kMinRecords)));
  const auto payload = static_cast<std::size_t>(rng.uniform_range(27, 339));
  hci::SnoopLog log;
  const BdAddr peer = *BdAddr::parse("00:1b:7d:da:71:0a");
  Bytes acl(payload);
  for (auto& b : acl) b = static_cast<std::uint8_t>(rng.next_u64());
  SimTime t = 1000;
  for (std::size_t r = 0; r < records; ++r) {
    hci::SnoopRecord rec;
    rec.timestamp_us = t;
    t += 625;
    if (r == 0) {
      ByteWriter w;
      w.u8(0x00).u16(0x0001);
      peer.to_wire(w);
      w.u8(0x01).u8(0x00);
      rec.direction = hci::Direction::kControllerToHost;
      rec.packet = hci::make_event(hci::ev::kConnectionComplete, w.data());
    } else {
      rec.direction = rng.chance(0.5) ? hci::Direction::kHostToController
                                      : hci::Direction::kControllerToHost;
      rec.packet = hci::make_acl(0x0001, acl);
    }
    log.append(std::move(rec));
  }
  return log.serialize();
}

struct Fleet {
  std::vector<std::string> paths;
  analytics::LabelMap labels;
  std::string error;
};

/// Write the fleet into a fresh `dir`.
Fleet write_fleet(const std::string& dir, std::uint64_t seed) {
  Fleet fleet;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  analytics::CorpusOptions co;
  co.dir = dir;
  co.files_per_class = kFilesPerClass;
  co.root_seed = seed;
  co.jobs = 1;
  const auto summary = analytics::generate_corpus(co);
  if (!summary) {
    fleet.error = "generate_corpus failed";
    return fleet;
  }
  if (summary->trials_failed != 0 ||
      summary->files_written != kFilesPerClass * analytics::corpus_class_names().size())
    fleet.error = "corpus voided " + std::to_string(summary->trials_failed) + " file(s)";
  const auto labels = analytics::load_labels(dir + "/labels.jsonl");
  if (!labels) {
    fleet.error = "labels.jsonl unreadable";
    return fleet;
  }
  fleet.labels = *labels;
  Rng rng(seed);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const std::string name = "session_" + std::to_string(i) + ".btsnoop";
    const Bytes data = session_capture(i, rng);
    std::ofstream out(dir + "/" + name, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out) fleet.error = "cannot write " + name;
    fleet.labels[name];  // labelled: no attack present
  }
  for (const auto& original : analytics::list_snoop_files(dir)) {
    const std::string name = fs::path(original).filename().string();
    const auto it = fleet.labels.find(name);
    const std::set<std::string> truth =
        it == fleet.labels.end() ? std::set<std::string>{} : it->second;
    for (std::size_t k = 1; k < kCopies; ++k) {
      const std::string copy = "copy" + std::to_string(k) + "_" + name;
      fs::create_hard_link(original, dir + "/" + copy, ec);
      if (ec) fs::copy_file(original, dir + "/" + copy, ec);
      if (ec) fleet.error = "cannot link " + copy;
      fleet.labels[copy] = truth;
    }
  }
  fleet.paths = analytics::list_snoop_files(dir);
  return fleet;
}

std::string report_shape(const analytics::FleetReport& r) {
  if (r.files_failed != 0) return std::to_string(r.files_failed) + " file(s) failed to scan";
  for (const auto& f : r.files)
    if (!f.fault.ok()) return f.name + ": " + f.fault.describe();
  for (const auto& [name, score] : r.scores)
    if (score.precision() != 1.0 || score.recall() != 1.0)
      return "detector " + name + " precision/recall " + std::to_string(score.precision()) +
             "/" + std::to_string(score.recall()) + " != 1/1";
  return {};
}

/// What the traced fleet passes leave for the caller.
struct FleetTrace {
  double untraced_s = 0, traced_s = 0;     // the analyze_file loop, both ways
  std::vector<Bytes> frames;               // first records of every capture
  std::vector<std::string> counter_names;  // the analytics counter names
};

/// The analytics layers over `fleet`, at 1 worker unless noted: scans at 1
/// and at par workers, alternating (pool efficiency, and the reference
/// report); analyze_file per file, untraced and then under `file` root
/// spans; then each file's layers as separate microcalls — mmap open, the
/// bare SnoopCursor walk, and the walk through RecordCtx + detectors.
FleetTrace trace_fleet(const Fleet& fleet, const Options& opt, Tracer& tracer, Metrics& m,
                       LoopResult& res) {
  FleetTrace ft;
  analytics::FleetConfig one, par;
  one.jobs = 1;
  par.jobs = opt.par_jobs;
  analytics::FleetReport first;
  std::vector<double> wall_1, wall_par;
  for (int i = 0; i < 5; ++i) {
    std::uint64_t t0 = now_ns();
    first = analytics::analyze_files(fleet.paths, one, &fleet.labels);
    wall_1.push_back(static_cast<double>(now_ns() - t0));
    t0 = now_ns();
    (void)analytics::analyze_files(fleet.paths, par, &fleet.labels);
    wall_par.push_back(static_cast<double>(now_ns() - t0));
  }
  res.attempted += fleet.paths.size();
  if (const auto e = fleet.error.empty() ? report_shape(first) : fleet.error; !e.empty()) {
    res.failed += fleet.paths.size();
    res.correct = false;
    res.errors.push_back("traced fleet: " + e);
  }
  m.set("analytics.pool_efficiency", median(wall_1) / (opt.par_jobs * median(wall_par)),
        "ratio");
  for (const auto& [name, v] : first.metrics.counters) ft.counter_names.push_back(name);

  auto detectors = analytics::make_default_detectors({});
  std::uint64_t t0 = now_ns();
  for (const auto& path : fleet.paths) (void)analytics::analyze_file(path, detectors);
  ft.untraced_s = static_cast<double>(now_ns() - t0) * 1e-9;
  t0 = now_ns();
  for (const auto& path : fleet.paths) {
    const std::uint64_t op = tracer.new_op();
    const std::uint64_t root = tracer.begin(op, 0, "file");
    analytics::FileReport fr;
    tracer.span(op, root, "analytics.analyze_file",
                [&] { fr = analytics::analyze_file(path, detectors); });
    tracer.end(root);
    res.attempted += 1;
    const auto it = std::find_if(first.files.begin(), first.files.end(),
                                 [&](const auto& f) { return f.name == fr.name; });
    if (it == first.files.end() || it->records != fr.records ||
        it->findings.size() != fr.findings.size()) {
      res.failed += 1;
      res.correct = false;
      res.errors.push_back(fr.name + ": analyze_file disagrees with analyze_files");
    }
  }
  ft.traced_s = static_cast<double>(now_ns() - t0) * 1e-9;

  double bytes = 0, cursor_ns = 0, detect_ns = 0;
  for (const auto& path : fleet.paths) {
    const std::uint64_t op = tracer.new_op();
    const std::uint64_t root = tracer.begin(op, 0, "file");
    std::optional<analytics::MappedFile> file;
    tracer.span(op, root, "analytics.open", [&] { file = analytics::MappedFile::open(path); });
    if (!file) {
      tracer.end(root);
      continue;
    }
    const BytesView data = file->view();
    bytes += static_cast<double>(data.size());
    cursor_ns += static_cast<double>(tracer.span(op, root, "hci.cursor", [&] {
      if (auto c = hci::SnoopCursor::open(data))
        while (c->next()) {
        }
    }));
    detect_ns += static_cast<double>(tracer.span(op, root, "analytics.detect", [&] {
      std::vector<analytics::Finding> findings;
      if (auto c = hci::SnoopCursor::open(data)) {
        while (const auto view = c->next()) {
          const auto ctx = analytics::RecordCtx::from_view(*view);
          for (auto& d : detectors) d->on_record(ctx);
        }
      }
      for (auto& d : detectors) d->finish(findings);
    }));
    tracer.end(root);
    if (auto c = hci::SnoopCursor::open(data))
      for (int n = 0; n < 4; ++n) {
        const auto view = c->next();
        if (!view) break;
        ft.frames.emplace_back(view->wire.begin(), view->wire.end());
      }
  }
  m.set("analytics.open_us", median(tracer.durations("analytics.open")) * 1e-3, "us");
  m.set("analytics.cursor_gb_per_s", cursor_ns > 0 ? bytes / cursor_ns : 0.0, "GB/s");
  m.set("analytics.detect_gb_per_s", detect_ns > 0 ? bytes / detect_ns : 0.0, "GB/s");
  const auto file_ns = tracer.durations("analytics.analyze_file");
  m.set("analytics.file_us_p50", percentile(file_ns, 50) * 1e-3, "us");
  m.set("analytics.file_us_p99", percentile(file_ns, 99) * 1e-3, "us");
  return ft;
}

}  // namespace

LoopResult run_fleet_scan(const Options& opt, Metrics& m) {
  Fleet fleet;
  const auto setup = [&] {
    fleet = write_fleet(opt.workdir + "/fleet", opt.seed);
    if (opt.perturb == Perturb::kTruncateCapture && !fleet.paths.empty()) {
      const auto biggest = *std::max_element(
          fleet.paths.begin(), fleet.paths.end(),
          [](const auto& a, const auto& b) { return fs::file_size(a) < fs::file_size(b); });
      fs::resize_file(biggest, fs::file_size(biggest) / 2 + 3);
    }
  };
  // Repeats write a second copy the scans never read.
  const auto repeat_setup = [&] { (void)write_fleet(opt.workdir + "/fleet-repeat", opt.seed); };

  const std::vector<Unit> units = {{"fleet scan", [&](unsigned jobs, std::size_t) {
                                      analytics::FleetConfig cfg;
                                      cfg.jobs = jobs;
                                      const auto r = analytics::analyze_files(
                                          fleet.paths, cfg, &fleet.labels);
                                      UnitRun run;
                                      run.ops = fleet.paths.size();
                                      run.output = r.to_json();
                                      run.shape_error =
                                          fleet.error.empty() ? report_shape(r) : fleet.error;
                                      run.shape_ok = run.shape_error.empty();
                                      return run;
                                    }}};
  Options loop_opt = opt;
  if (opt.trace) loop_opt.seconds = opt.seconds / 2;
  LoopResult res = run_loop(units, loop_opt, opt.seed == kFleetDefaultSeed ? kFleetDigest : "",
                            setup, repeat_setup);
  if (!opt.trace) {
    m.set("ops_per_s", res.ops_per_s, "ops/s");
    m.set("ops_per_s_par", res.ops_per_s_par, "ops/s");
    m.set("setup_s", res.setup_s, "s");
    return res;
  }

  Tracer tracer;
  const FleetTrace ft = trace_fleet(fleet, opt, tracer, m, res);
  CryptoSampler crypto(opt.seed);
  crypto.sample(24);
  const CryptoCosts cc = crypto.costs();
  m.set("crypto.p256_keygen_us", cc.p256_keygen_us, "us");
  m.set("crypto.p256_ecdh_us", cc.p256_ecdh_us, "us");
  m.set("crypto.p192_ecdh_us", cc.p192_ecdh_us, "us");
  const CodecCosts hc = measure_hci_codec(ft.frames);
  m.set("hci.decode_ns", hc.decode_ns, "ns");
  m.set("hci.encode_ns", hc.encode_ns, "ns");
  m.set("tracing_overhead", ft.untraced_s / ft.traced_s, "ratio");
  m.set("obs.metrics_add_ns", measure_metrics_add_ns(ft.counter_names), "ns");
  add_self_shares(m, tracer);
  tracer.write(opt.workdir + "/spans-" + opt.workload + ".jsonl");
  return res;
}

void add_analytics_layers(const Options& opt, Metrics& m, LoopResult& res) {
  const Fleet fleet = write_fleet(opt.workdir + "/fleet-layers", opt.seed);
  Tracer tracer;
  (void)trace_fleet(fleet, opt, tracer, m, res);
  tracer.write(opt.workdir + "/spans-" + opt.workload + "-analytics.jsonl");
}

}  // namespace blap::bench
