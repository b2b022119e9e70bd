#include "fuzz/codec_harness.hpp"

#include <algorithm>
#include <type_traits>

#include "hci/commands.hpp"
#include "hci/events.hpp"

namespace blap::fuzz {
namespace {

/// FNV-1a over a label string: a stable, compiler-independent hash for
/// "decoder X accepted this input" features.
std::uint64_t label_hash(const char* label) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char* c = label; *c != '\0'; ++c) {
    h ^= static_cast<std::uint8_t>(*c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// The parameter block a typed PDU's wire form carries: an HCI packet's
/// command or event parameters, or an LMP payload whole.
std::optional<BytesView> params_of(const hci::HciPacket& packet) {
  return packet.type == hci::PacketType::kCommand ? packet.command_params()
                                                  : packet.event_params();
}
std::optional<BytesView> params_of(const Bytes& payload) { return BytesView(payload); }

/// Canonical idempotence over arbitrary accepted input: if the row's decoder
/// accepts `params`, re-encoding must produce a wire form whose own parameter
/// block decodes and re-encodes to the same wire — decode∘encode is a fixed
/// point.
template <typename Row>
CheckResult check_params_fixed_point(const Row* row, BytesView params, FeatureSink* sink) {
  if (row == nullptr || row->canon == nullptr) return {};
  const auto packet = row->canon(params);
  if (!packet) return {};
  if (sink != nullptr) sink->hash(0x10, label_hash(row->label));
  const auto fail = [row](const char* what) { return check_fail(row->label + std::string(what)); };
  const Bytes wire = packet->to_wire();
  const auto reparsed = hci::HciPacket::from_wire(wire);
  if (!reparsed) return fail(": canonical re-encode failed to reparse");
  const auto canon_params = params_of(*reparsed);
  if (!canon_params) return fail(": canonical re-encode lost its parameters");
  const auto again = row->canon(*canon_params);
  if (!again) return fail(": canonical parameters failed to re-decode");
  if (again->to_wire() != wire) return fail(": decode/encode is not a fixed point");
  return {};
}

}  // namespace

CheckResult check_h4_round_trip(const hci::HciPacket& packet) {
  const Bytes wire = packet.to_wire();
  const auto parsed = hci::HciPacket::from_wire(wire);
  if (!parsed) return check_fail("H4: own wire failed to reparse");
  if (*parsed != packet) return check_fail("H4: reparse changed the packet");
  if (parsed->to_wire() != wire) return check_fail("H4: re-encode differs from wire");
  return {};
}

CheckResult check_lmp_round_trip(const controller::LmpPdu& pdu) {
  const Bytes frame = pdu.to_air_frame();
  const auto parsed = controller::LmpPdu::from_air_frame(frame);
  if (!parsed) return check_fail("LMP: own frame failed to reparse");
  if (parsed->opcode != pdu.opcode) return check_fail("LMP: reparse changed the opcode");
  if (parsed->payload != pdu.payload) return check_fail("LMP: reparse changed the payload");
  if (parsed->to_air_frame() != frame)
    return check_fail("LMP: re-encode differs from frame");
  return {};
}

CheckResult check_hci_wire(BytesView wire, FeatureSink* sink) {
  const auto packet = hci::HciPacket::from_wire(wire);
  if (!packet) {
    if (sink != nullptr) sink->hash(0x11, wire.empty() ? 0u : wire[0]);
    return {};
  }
  if (sink != nullptr) {
    sink->hash(0x12, static_cast<std::uint64_t>(packet->type));
    sink->hash(0x13, (static_cast<std::uint64_t>(packet->type) << 32) |
                         std::min<std::size_t>(packet->payload.size(), 1024));
  }
  // H4 reparse identity holds for every accepted wire string.
  if (packet->to_wire() != to_bytes(wire))
    return check_fail("H4: accepted wire did not re-encode identically");

  switch (packet->type) {
    case hci::PacketType::kCommand: {
      const auto opcode = packet->command_opcode();
      const auto params = packet->command_params();
      if (!params) return {};
      if (!opcode) return check_fail("HCI command: parameters without an opcode");
      if (sink != nullptr) sink->hash(0x14, *opcode);
      return check_params_fixed_point(hci::layout::find_row(hci::command_rows(), *opcode),
                                      *params, sink);
    }
    case hci::PacketType::kEvent: {
      const auto code = packet->event_code();
      const auto params = packet->event_params();
      if (!params) return {};
      if (sink != nullptr) sink->hash(0x15, *code);
      return check_params_fixed_point(hci::layout::find_row(hci::event_rows(), *code), *params,
                                      sink);
    }
    case hci::PacketType::kAclData: {
      const auto handle = packet->acl_handle();
      const auto data = packet->acl_data();
      if (data.has_value() && !handle.has_value())
        return check_fail("ACL: data without a handle");
      if (!data) return {};
      if (sink != nullptr) {
        sink->hash(0x16, *handle);
        sink->hash(0x17, std::min<std::size_t>(data->size(), 1024));
      }
      // Header consistency: the length field covered exactly the bytes the
      // accessor returned, and the flag accessors agree with the raw header.
      const std::size_t declared =
          static_cast<std::size_t>(packet->payload[2] | (packet->payload[3] << 8));
      if (data->size() != declared)
        return check_fail("ACL: accessor length disagrees with the header");
      const auto pb = packet->acl_pb_flag();
      const auto bc = packet->acl_bc_flag();
      if (!pb || !bc) return check_fail("ACL: handle present but flags absent");
      // An exactly-sized packet must rebuild byte-identically from its
      // parsed fields — the fragment builder and the parser are inverses.
      if (packet->payload.size() == 4 + declared) {
        const hci::HciPacket rebuilt = hci::make_acl_fragment(*handle, *pb, *bc, *data);
        if (rebuilt != *packet)
          return check_fail("ACL: parse/rebuild is not the identity");
      }
      return {};
    }
    case hci::PacketType::kScoData: return {};
  }
  return {};
}

CheckResult check_lmp_frame(BytesView frame, FeatureSink* sink) {
  // ACL air-frame path: parse must mirror acl_air_frame exactly.
  if (const auto acl = controller::parse_acl_air_frame(frame)) {
    if (sink != nullptr) sink->hash(0x18, std::min<std::size_t>(acl->size(), 1024));
    if (controller::acl_air_frame(*acl) != to_bytes(frame))
      return check_fail("ACL air frame: parse/rebuild is not the identity");
  }

  const auto pdu = controller::LmpPdu::from_air_frame(frame);
  if (!pdu) {
    if (sink != nullptr) sink->hash(0x19, frame.empty() ? 0u : frame[0]);
    return {};
  }
  if (sink != nullptr) {
    sink->hash(0x1A, static_cast<std::uint64_t>(pdu->opcode));
    sink->hash(0x1B, (static_cast<std::uint64_t>(pdu->opcode) << 32) |
                         std::min<std::size_t>(pdu->payload.size(), 256));
  }
  if (pdu->to_air_frame() != to_bytes(frame))
    return check_fail("LMP: accepted frame did not re-encode identically");

  // The opcode's typed payload decoder: canonical fixed point for whatever
  // it accepts.
  const controller::LmpRow* row = hci::layout::find_row(controller::lmp_rows(), pdu->opcode);
  if (row == nullptr || row->canon == nullptr) return {};
  const auto payload = row->canon(pdu->payload);
  if (!payload) return {};
  if (sink != nullptr) sink->hash(0x1C, label_hash(row->label));
  const auto again = row->canon(*payload);
  if (!again)
    return check_fail(row->label + std::string(": canonical payload failed to re-decode"));
  if (*again != *payload)
    return check_fail(row->label + std::string(": decode/encode is not a fixed point"));
  return {};
}

template <typename Code, typename Wire>
CheckResult check_row_round_trip(const hci::layout::Row<Code, Wire>& row, const Wire& value) {
  const auto fail = [&row](const std::string& what) { return check_fail(row.label + what); };
  // An HCI packet's parameter block is taken from a reparse of its own H4
  // bytes; an LMP payload is the block.
  Wire own = value;
  if constexpr (std::is_same_v<Wire, hci::HciPacket>) {
    auto reparsed = hci::HciPacket::from_wire(value.to_wire());
    if (!reparsed) return fail(": own wire failed to reparse");
    own = std::move(*reparsed);
  }
  const auto params = params_of(own);
  if (!params) return fail(": no parameter block in own wire");

  const auto decoded = row.canon(*params);
  if (!decoded) return fail(": own parameters failed to decode");
  if (*decoded != value) return fail(": re-encode differs from original wire");

  // A raw rest takes whatever bytes follow the fixed fields, so for such a
  // layout "decodes" means "re-encodes to exactly the block it was given".
  const auto absorbed = [&row](BytesView block) {
    const auto wire = row.canon(block);
    const auto carried = wire ? params_of(*wire) : std::nullopt;
    return carried.has_value() && std::ranges::equal(*carried, block);
  };

  // Strict prefixes reject; with a raw rest, the ones that reach into it
  // may decode instead, to exactly their own bytes.
  for (std::size_t cut = 0; cut < params->size(); ++cut) {
    const BytesView prefix = params->subspan(0, cut);
    if (row.canon(prefix).has_value() && !(row.absorbs_tail && absorbed(prefix)))
      return fail(": strict prefix of " + std::to_string(cut) + " bytes decoded");
  }

  // Trailing garbage: tolerated (decodes to the same value) or rejected —
  // but never a different value, unless a raw rest absorbs it whole. A
  // fixed tail keeps the harness deterministic without threading an Rng.
  Bytes padded = to_bytes(*params);
  for (std::size_t i = 0; i < 9; ++i) padded.push_back(static_cast<std::uint8_t>(0xA5 + 17 * i));
  if (row.absorbs_tail) {
    if (!absorbed(padded)) return fail(": padded decode did not absorb the tail");
  } else if (const auto tolerant = row.canon(padded); tolerant && *tolerant != value) {
    return fail(": padded decode changed the value");
  }
  return {};
}

template CheckResult check_row_round_trip(const hci::CommandRow&, const hci::HciPacket&);
template CheckResult check_row_round_trip(const hci::EventRow&, const hci::HciPacket&);
template CheckResult check_row_round_trip(const controller::LmpRow&, const Bytes&);

}  // namespace blap::fuzz
