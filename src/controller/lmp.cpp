#include "controller/lmp.hpp"

namespace blap::controller {
namespace {

constexpr LmpRow kLmpOpcodes[] = {
    {LmpOpcode::kHostConnectionReq, "LMP_host_connection_req"},
    {LmpOpcode::kAccepted, "LMP_accepted"},
    BLAP_LAYOUT_ROW_AT(LmpNotAccepted, LmpOpcode::kNotAccepted, "LMP_not_accepted"),
    {LmpOpcode::kSetupComplete, "LMP_setup_complete"},
    {LmpOpcode::kDetach, "LMP_detach"},
    {LmpOpcode::kAuRand, "LMP_au_rand"},
    {LmpOpcode::kSres, "LMP_sres"},
    BLAP_LAYOUT_ROW_AT(LmpIoCap, LmpOpcode::kIoCapabilityReq, "LMP_io_capability_req"),
    BLAP_LAYOUT_ROW_AT(LmpIoCap, LmpOpcode::kIoCapabilityRes, "LMP_io_capability_res"),
    BLAP_LAYOUT_ROW_AT(LmpPublicKey, LmpOpcode::kEncapsulatedPublicKey,
                       "LMP_encapsulated (public key)"),
    {LmpOpcode::kSimplePairingConfirm, "LMP_Simple_Pairing_Confirm"},
    {LmpOpcode::kSimplePairingNumber, "LMP_Simple_Pairing_Number"},
    {LmpOpcode::kDhkeyCheck, "LMP_DHkey_Check"},
    {LmpOpcode::kEncryptionModeReq, "LMP_encryption_mode_req"},
    {LmpOpcode::kStartEncryptionReq, "LMP_start_encryption_req"},
    {LmpOpcode::kStopEncryptionReq, "LMP_stop_encryption_req"},
    {LmpOpcode::kNameReq, "LMP_name_req"},
    {LmpOpcode::kNameRes, "LMP_name_res"},
    {LmpOpcode::kPing, "LMP_ping"},
    {LmpOpcode::kInRand, "LMP_in_rand"},
    {LmpOpcode::kCombKey, "LMP_comb_key"},
    {LmpOpcode::kAuRandSc, "LMP_au_rand (secure authentication)"},
    {LmpOpcode::kSresSc, "LMP_sres (secure authentication)"},
};
static_assert(std::ranges::is_sorted(kLmpOpcodes, {}, &LmpRow::code));

}  // namespace

std::span<const LmpRow> lmp_rows() { return kLmpOpcodes; }

const char* to_string(LmpOpcode opcode) {
  const LmpRow* row = hci::layout::find_row(lmp_rows(), opcode);
  return row != nullptr ? row->name : "LMP_unknown";
}

Bytes LmpPdu::to_air_frame() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(AirChannel::kLmp));
  w.u8(static_cast<std::uint8_t>(opcode));
  w.raw(payload);
  return std::move(w).take();
}

std::optional<LmpPdu> LmpPdu::from_air_frame(BytesView frame) {
  ByteReader r(frame);
  auto channel = r.u8();
  if (!channel || *channel != static_cast<std::uint8_t>(AirChannel::kLmp)) return std::nullopt;
  auto opcode = r.u8();
  if (!opcode || *opcode == 0 || *opcode > static_cast<std::uint8_t>(LmpOpcode::kSresSc))
    return std::nullopt;
  LmpPdu pdu;
  pdu.opcode = static_cast<LmpOpcode>(*opcode);
  pdu.payload = to_bytes(r.rest());
  return pdu;
}

Bytes acl_air_frame(BytesView l2cap_payload) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(AirChannel::kAcl));
  w.raw(l2cap_payload);
  return std::move(w).take();
}

std::optional<Bytes> parse_acl_air_frame(BytesView frame) {
  ByteReader r(frame);
  auto channel = r.u8();
  if (!channel || *channel != static_cast<std::uint8_t>(AirChannel::kAcl)) return std::nullopt;
  return to_bytes(r.rest());
}

}  // namespace blap::controller
