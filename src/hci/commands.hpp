// commands.hpp — typed HCI command builders and parsers.
//
// Each command struct mirrors the parameter layout of the Bluetooth Core
// Specification (Vol 4, Part E §7.1/7.3/7.4) and declares it once as a field
// list (hci/layout.hpp); encode() produces the on-wire HciPacket and
// decode() parses parameters back (used by the simulated controller's
// dispatcher, the snoop analyzer, and the attack extractors).
#pragma once

#include <optional>
#include <span>
#include <string>

#include "common/bdaddr.hpp"
#include "crypto/keys.hpp"
#include "hci/layout.hpp"
#include "hci/packets.hpp"

namespace blap::hci {

// --- Link Control (OGF 0x01) -----------------------------------------------

struct InquiryCmd {
  std::uint32_t lap = 0x9E8B33;  // General Inquiry Access Code
  std::uint8_t inquiry_length = 8;  // x 1.28 s
  std::uint8_t num_responses = 0;   // 0 = unlimited

  BLAP_HCI_COMMAND(InquiryCmd, op::kInquiry, "HCI_Inquiry", u24(lap), u8(inquiry_length),
                   u8(num_responses))
};

struct CreateConnectionCmd {
  BdAddr bdaddr;
  std::uint16_t packet_type = 0xCC18;
  std::uint8_t page_scan_repetition_mode = 0x01;
  std::uint8_t reserved = 0x00;
  std::uint16_t clock_offset = 0x0000;
  std::uint8_t allow_role_switch = 0x01;

  BLAP_HCI_COMMAND(CreateConnectionCmd, op::kCreateConnection, "HCI_Create_Connection",
                   addr(bdaddr), u16(packet_type), u8(page_scan_repetition_mode), u8(reserved),
                   u16(clock_offset), u8(allow_role_switch))
};

struct DisconnectCmd {
  ConnectionHandle handle = kInvalidHandle;
  Status reason = Status::kRemoteUserTerminatedConnection;

  BLAP_HCI_COMMAND(DisconnectCmd, op::kDisconnect, "HCI_Disconnect", u16(handle), u8(reason))
};

struct AcceptConnectionRequestCmd {
  BdAddr bdaddr;
  std::uint8_t role = 0x01;  // remain peripheral

  BLAP_HCI_COMMAND(AcceptConnectionRequestCmd, op::kAcceptConnectionRequest,
                   "HCI_Accept_Connection_Request", addr(bdaddr), u8(role))
};

struct RejectConnectionRequestCmd {
  BdAddr bdaddr;
  Status reason = Status::kPairingNotAllowed;

  BLAP_HCI_COMMAND(RejectConnectionRequestCmd, op::kRejectConnectionRequest,
                   "HCI_Reject_Connection_Request", addr(bdaddr), u8(reason))
};

/// The key-bearing command at the heart of the link key extraction attack:
/// its parameters are the peer BD_ADDR followed by the 16-byte link key, in
/// plaintext. Wire prefix: 0b 04 16 (opcode LE + length 22).
struct LinkKeyRequestReplyCmd {
  BdAddr bdaddr;
  crypto::LinkKey link_key{};

  BLAP_HCI_COMMAND(LinkKeyRequestReplyCmd, op::kLinkKeyRequestReply, "HCI_Link_Key_Request_Reply",
                   addr(bdaddr), lsb_key(link_key))
};

struct LinkKeyRequestNegativeReplyCmd {
  BdAddr bdaddr;

  BLAP_HCI_COMMAND(LinkKeyRequestNegativeReplyCmd, op::kLinkKeyRequestNegativeReply,
                   "HCI_Link_Key_Request_Negative_Reply", addr(bdaddr))
};

/// Legacy (pre-SSP) pairing: the host supplies the user's PIN. On the wire:
/// BD_ADDR + PIN length + 16 bytes of zero-padded PIN. The PIN crosses the
/// HCI in plaintext too — legacy pairing never improved on that.
struct PinCodeRequestReplyCmd {
  BdAddr bdaddr;
  std::string pin;  // 1..16 bytes

  BLAP_HCI_COMMAND(PinCodeRequestReplyCmd, op::kPinCodeRequestReply, "HCI_PIN_Code_Request_Reply",
                   addr(bdaddr), length_prefixed_pin(pin))
};

struct PinCodeRequestNegativeReplyCmd {
  BdAddr bdaddr;

  BLAP_HCI_COMMAND(PinCodeRequestNegativeReplyCmd, op::kPinCodeRequestNegativeReply,
                   "HCI_PIN_Code_Request_Negative_Reply", addr(bdaddr))
};

struct AuthenticationRequestedCmd {
  ConnectionHandle handle = kInvalidHandle;

  BLAP_HCI_COMMAND(AuthenticationRequestedCmd, op::kAuthenticationRequested,
                   "HCI_Authentication_Requested", u16(handle))
};

struct SetConnectionEncryptionCmd {
  ConnectionHandle handle = kInvalidHandle;
  std::uint8_t encryption_enable = 0x01;

  BLAP_HCI_COMMAND(SetConnectionEncryptionCmd, op::kSetConnectionEncryption,
                   "HCI_Set_Connection_Encryption", u16(handle), u8(encryption_enable))
};

struct RemoteNameRequestCmd {
  BdAddr bdaddr;
  std::uint8_t page_scan_repetition_mode = 0x01;
  std::uint8_t reserved = 0x00;
  std::uint16_t clock_offset = 0x0000;

  BLAP_HCI_COMMAND(RemoteNameRequestCmd, op::kRemoteNameRequest, "HCI_Remote_Name_Request",
                   addr(bdaddr), u8(page_scan_repetition_mode), u8(reserved), u16(clock_offset))
};

struct IoCapabilityRequestReplyCmd {
  BdAddr bdaddr;
  IoCapability io_capability = IoCapability::kDisplayYesNo;
  std::uint8_t oob_data_present = 0x00;
  std::uint8_t authentication_requirements = 0x03;  // MITM required, dedicated bonding

  BLAP_HCI_COMMAND(IoCapabilityRequestReplyCmd, op::kIoCapabilityRequestReply,
                   "HCI_IO_Capability_Request_Reply", addr(bdaddr), enum_byte<0x03>(io_capability),
                   u8(oob_data_present), u8(authentication_requirements))
};

struct UserConfirmationRequestReplyCmd {
  BdAddr bdaddr;

  BLAP_HCI_COMMAND(UserConfirmationRequestReplyCmd, op::kUserConfirmationRequestReply,
                   "HCI_User_Confirmation_Request_Reply", addr(bdaddr))
};

struct UserConfirmationRequestNegativeReplyCmd {
  BdAddr bdaddr;

  BLAP_HCI_COMMAND(UserConfirmationRequestNegativeReplyCmd,
                   op::kUserConfirmationRequestNegativeReply,
                   "HCI_User_Confirmation_Request_Negative_Reply", addr(bdaddr))
};

// --- Controller & Baseband (OGF 0x03) ---------------------------------------

struct ResetCmd {
  BLAP_HCI_COMMAND(ResetCmd, op::kReset, "HCI_Reset")
};

struct WriteScanEnableCmd {
  ScanEnable scan_enable = ScanEnable::kInquiryAndPage;

  BLAP_HCI_COMMAND(WriteScanEnableCmd, op::kWriteScanEnable, "HCI_Write_Scan_Enable",
                   enum_byte<0x03>(scan_enable))
};

struct WriteClassOfDeviceCmd {
  ClassOfDevice class_of_device;

  BLAP_HCI_COMMAND(WriteClassOfDeviceCmd, op::kWriteClassOfDevice, "HCI_Write_Class_of_Device",
                   cod(class_of_device))
};

struct WriteLocalNameCmd {
  std::string name;  // up to 247 bytes, zero padded to 248 on the wire

  BLAP_HCI_COMMAND(WriteLocalNameCmd, op::kWriteLocalName, "HCI_Write_Local_Name",
                   padded_name<248>(name))
};

struct WriteSimplePairingModeCmd {
  std::uint8_t enabled = 0x01;

  BLAP_HCI_COMMAND(WriteSimplePairingModeCmd, op::kWriteSimplePairingMode,
                   "HCI_Write_Simple_Pairing_Mode", enum_byte<1>(enabled))
};

// --- Informational (OGF 0x04) -----------------------------------------------

struct ReadBdAddrCmd {
  BLAP_HCI_COMMAND(ReadBdAddrCmd, op::kReadBdAddr, "HCI_Read_BD_ADDR")
};

/// Read_BD_ADDR's Command_Complete return parameters.
struct ReadBdAddrReturn {
  Status status = Status::kSuccess;
  BdAddr bdaddr;

  BLAP_PARAMS(ReadBdAddrReturn, u8(status), addr(bdaddr))
};

// --- registry ------------------------------------------------------------------

using CommandRow = layout::Row<std::uint16_t, HciPacket>;

/// One row per known opcode, ascending. Every typed command above has a
/// typed row except the parameterless Reset and Read_BD_ADDR, whose empty
/// layouts accept any block and so leave nothing to probe; they, and the
/// struct-less Inquiry_Cancel and Read_Stored_Link_Key, are name-only rows.
[[nodiscard]] std::span<const CommandRow> command_rows();

}  // namespace blap::hci
