#include "snapshot/snapshot.hpp"

#include <cstdio>
#include <string_view>

#include "chaos/failpoint.hpp"

namespace blap::snapshot {
namespace {

constexpr std::uint32_t kSimTag = state::tag('S', 'I', 'M', ' ');
constexpr std::uint32_t kMediumTag = state::tag('M', 'E', 'D', 'M');
constexpr std::uint32_t kDeviceTag = state::tag('D', 'E', 'V', 'C');

void set_why(std::string* why, std::string text) {
  if (why != nullptr) *why = std::move(text);
}

/// The file header and the SIM section: one field list for serialize(),
/// apply() and from_bytes(). Magic and version are checked as they are
/// read, so a foreign or future file fails with that error before anything
/// behind it is parsed.
struct Prologue {
  std::array<std::uint8_t, Snapshot::kMagic.size()> magic = Snapshot::kMagic;
  std::uint32_t version = Snapshot::kVersion;
  bool strict = false;
  SimTime now = 0;
  std::uint64_t next_seq = 0;
  std::array<std::uint64_t, 4> rng{};
  std::uint64_t device_count = 0;
  /// Capture writes these devices' names and transports. Restore checks
  /// the stored ones against them as it reads, without copying a name;
  /// from_bytes() leaves this null and only walks the entries.
  const std::vector<std::unique_ptr<core::Device>>* devices = nullptr;
  /// Restore: the first stored device that differs from `devices`, or
  /// empty. Only checked when the device counts agree (apply() reports a
  /// count mismatch first).
  std::string mismatch;

  template <class Io>
  void visit_state(Io& io) {
    io(magic);
    if (magic != Snapshot::kMagic) io.fail("not a BLAPSNAP snapshot (bad magic)");
    io(version);
    if (version != Snapshot::kVersion) io.fail("unsupported snapshot version");
    io(strict);
    // Bit-rot in the stored header: the snapshot must be rejected up front
    // with a clean typed error, never half-applied.
    if constexpr (Io::kLoading) {
      if (magic == Snapshot::kMagic && version == Snapshot::kVersion &&
          BLAP_FAILPOINT("snapshot.load.header_reject"))
        io.fail("snapshot header rejected (chaos failpoint)");
    }
    io.section(kSimTag, [&] {
      io(now, next_seq, rng);
      if constexpr (Io::kLoading) {
        device_count = io.count();
        for (std::uint64_t i = 0; i < device_count && io.ok(); ++i) {
          const BytesView name = io.view();
          core::TransportKind transport{};
          io(transport);
          check(i, name, transport);
        }
      } else {
        device_count = devices->size();
        io(device_count);
        for (const auto& device : *devices) {
          std::string name = device->spec().name;
          core::TransportKind transport = device->spec().transport;
          io(name, transport);
        }
      }
    });
  }

  void check(std::uint64_t i, BytesView name, core::TransportKind transport) {
    if (devices == nullptr || device_count != devices->size() || !mismatch.empty()) return;
    const auto& spec = (*devices)[static_cast<std::size_t>(i)]->spec();
    const std::string_view stored(reinterpret_cast<const char*>(name.data()), name.size());
    if (stored == spec.name && transport == spec.transport) return;
    mismatch = "topology mismatch at device " + std::to_string(i) + ": snapshot has '" +
               std::string(stored) + "', simulation has '" + spec.name + "'";
  }
};

/// The state sections behind the prologue: the medium, then one per device.
template <class Io>
void visit_sections(Io& io, core::Simulation& sim) {
  const auto roster = sim.endpoint_roster();
  io.section(kMediumTag, [&] { sim.medium().visit_state(io, roster); });
  // The byte stream dies mid-commit (a truncation the structural walk did
  // not model): every later read fails soft and apply() must report — the
  // caller abandons the half-restored simulation.
  if constexpr (Io::kLoading) {
    if (BLAP_FAILPOINT("snapshot.load.truncated")) io.fail("snapshot truncated mid-restore");
  }
  for (const auto& device : sim.devices())
    io.section(kDeviceTag, [&] { device->visit_state(io); });
}

}  // namespace

Snapshot Snapshot::serialize(core::Simulation& sim, bool strict, bool* ok) {
  Prologue head;
  head.strict = strict;
  head.now = sim.scheduler().now();
  head.next_seq = sim.scheduler().next_seq();
  head.rng = sim.rng().state();
  head.devices = &sim.devices();

  state::StateWriter w;
  state::Saver io(w);
  io(head);
  visit_sections(io, sim);
  *ok = io.ok();

  Snapshot snap;
  snap.data_ = w.take();
  snap.strict_ = strict;
  snap.now_ = head.now;
  return snap;
}

std::optional<Snapshot> Snapshot::capture(core::Simulation& sim, std::string* why) {
  if (!sim.scheduler().idle()) {
    set_why(why, "scheduler not idle: " + std::to_string(sim.scheduler().pending_events()) +
                     " event(s) still queued");
    return std::nullopt;
  }
  for (const auto& device : sim.devices()) {
    if (!device->quiescent()) {
      set_why(why, "device '" + device->spec().name + "' not quiescent");
      return std::nullopt;
    }
  }
  bool ok = false;
  Snapshot snap = serialize(sim, /*strict=*/true, &ok);
  if (!ok) {
    set_why(why, "a radio link references an endpoint outside the simulation roster");
    return std::nullopt;
  }
  return snap;
}

Snapshot Snapshot::capture_relaxed(core::Simulation& sim) {
  bool ok = false;
  return serialize(sim, /*strict=*/false, &ok);
}

bool Snapshot::apply(core::Simulation& sim, state::RestoreMode mode, std::string* why) const {
  state::StateReader r(data_);
  state::Loader io(r, mode);
  Prologue head;
  head.devices = &sim.devices();
  io(head);
  if (!r.ok()) {
    set_why(why, r.error());
    return false;
  }

  // --- validate everything before mutating anything -------------------------
  if (mode == state::RestoreMode::kRewind && !head.strict) {
    set_why(why, "fork restore requires a strict (quiescent-point) snapshot");
    return false;
  }
  if (head.device_count != sim.devices().size()) {
    set_why(why, "topology mismatch: snapshot has " + std::to_string(head.device_count) +
                     " device(s), simulation has " + std::to_string(sim.devices().size()));
    return false;
  }
  if (!head.mismatch.empty()) {
    set_why(why, head.mismatch);
    return false;
  }
  if (mode == state::RestoreMode::kInPlace && head.now != sim.now()) {
    set_why(why, "in-place restore must happen at the capture instant (snapshot t=" +
                     std::to_string(head.now) + " us, simulation t=" +
                     std::to_string(sim.now()) + " us)");
    return false;
  }

  // --- commit ---------------------------------------------------------------
  if (mode == state::RestoreMode::kRewind) sim.scheduler().rewind(head.now, head.next_seq);
  sim.rng().set_state(head.rng);
  visit_sections(io, sim);
  if (mode == state::RestoreMode::kRewind && sim.observer() != nullptr)
    sim.observer()->reset();

  if (!r.ok()) {
    // Structural validation in from_bytes() leaves only a malformed state
    // payload (or a load failpoint) to fail here; report it rather than
    // continuing on a half-restored simulation.
    set_why(why, r.error());
    return false;
  }
  return true;
}

bool Snapshot::restore(core::Simulation& sim, std::string* why) const {
  return apply(sim, state::RestoreMode::kRewind, why);
}

bool Snapshot::restore_in_place(core::Simulation& sim, std::string* why) const {
  return apply(sim, state::RestoreMode::kInPlace, why);
}

std::optional<Snapshot> Snapshot::from_bytes(Bytes data, std::string* why) {
  state::StateReader r(data);
  state::Loader io(r);
  Prologue head;
  io(head);
  // Structural walk: the prologue is parsed (it carries the clock and the
  // device list), the medium and device sections are hopped over by their
  // recorded lengths. Any truncation, tag mismatch or trailing garbage is
  // caught here, before a restore can touch a live simulation.
  r.skip(r.expect_section(kMediumTag));
  for (std::uint64_t i = 0; r.ok() && i < head.device_count; ++i)
    r.skip(r.expect_section(kDeviceTag));
  if (r.ok() && r.remaining() != 0) r.fail("trailing bytes after final section");
  if (!r.ok()) {
    set_why(why, r.error());
    return std::nullopt;
  }

  Snapshot snap;
  snap.data_ = std::move(data);
  snap.strict_ = head.strict;
  snap.now_ = head.now;
  return snap;
}

bool Snapshot::save_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(data_.data(), 1, data_.size(), f);
  const bool closed = std::fclose(f) == 0;
  return written == data_.size() && closed;
}

std::optional<Snapshot> Snapshot::load_file(const std::string& path, std::string* why) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    set_why(why, "cannot open '" + path + "'");
    return std::nullopt;
  }
  Bytes data;
  std::array<std::uint8_t, 4096> chunk{};
  for (;;) {
    const std::size_t n = std::fread(chunk.data(), 1, chunk.size(), f);
    data.insert(data.end(), chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(n));
    if (n < chunk.size()) break;
  }
  std::fclose(f);
  return from_bytes(std::move(data), why);
}

}  // namespace blap::snapshot
