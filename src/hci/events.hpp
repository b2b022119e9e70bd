// events.hpp — typed HCI event builders and parsers (controller → host).
//
// The event sequences these produce are exactly what the paper's Fig. 12
// compares: a normal pairing shows Create_Connection → Connection_Complete →
// Authentication_Requested → Link_Key_Request → ..., while a pairing under
// page blocking starts with Connection_Request → Accept_Connection_Request.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "common/bdaddr.hpp"
#include "crypto/keys.hpp"
#include "hci/layout.hpp"
#include "hci/packets.hpp"

namespace blap::hci {

struct CommandCompleteEvt {
  std::uint8_t num_hci_command_packets = 1;
  std::uint16_t command_opcode = 0;
  Bytes return_parameters;  // first byte is usually a Status

  BLAP_HCI_EVENT(CommandCompleteEvt, ev::kCommandComplete, "HCI_Command_Complete",
                 u8(num_hci_command_packets), u16(command_opcode), raw_rest(return_parameters))
};

struct CommandStatusEvt {
  Status status = Status::kSuccess;
  std::uint8_t num_hci_command_packets = 1;
  std::uint16_t command_opcode = 0;

  BLAP_HCI_EVENT(CommandStatusEvt, ev::kCommandStatus, "HCI_Command_Status", u8(status),
                 u8(num_hci_command_packets), u16(command_opcode))
};

struct InquiryResultEvt {
  BdAddr bdaddr;
  std::uint8_t page_scan_repetition_mode = 0x01;
  ClassOfDevice class_of_device;
  std::uint16_t clock_offset = 0;

  BLAP_HCI_EVENT(InquiryResultEvt, ev::kInquiryResult, "HCI_Inquiry_Result", constant<1>(),
                 addr(bdaddr), u8(page_scan_repetition_mode), reserved_bytes<2>(),
                 cod(class_of_device), u16(clock_offset))
};

struct InquiryCompleteEvt {
  Status status = Status::kSuccess;

  BLAP_HCI_EVENT(InquiryCompleteEvt, ev::kInquiryComplete, "HCI_Inquiry_Complete", u8(status))
};

/// Extended Inquiry Result (BT 2.1+): one response carrying RSSI and an EIR
/// block whose 0x09 structure holds the responder's complete local name —
/// how a scan list shows "carkit" before any connection exists (and how the
/// paper's victim picks "C" from the picker).
struct ExtendedInquiryResultEvt {
  BdAddr bdaddr;
  std::uint8_t page_scan_repetition_mode = 0x01;
  ClassOfDevice class_of_device;
  std::uint16_t clock_offset = 0;
  std::int8_t rssi = -60;
  std::string name;  // from / into the EIR complete-local-name structure

  BLAP_HCI_EVENT(ExtendedInquiryResultEvt, ev::kExtendedInquiryResult,
                 "HCI_Extended_Inquiry_Result", constant<1>(), addr(bdaddr),
                 u8(page_scan_repetition_mode), reserved_bytes<1>(), cod(class_of_device),
                 u16(clock_offset), u8(rssi), eir_name(name))
};

struct ConnectionRequestEvt {
  BdAddr bdaddr;
  ClassOfDevice class_of_device;
  std::uint8_t link_type = 0x01;  // ACL

  BLAP_HCI_EVENT(ConnectionRequestEvt, ev::kConnectionRequest, "HCI_Connection_Request",
                 addr(bdaddr), cod(class_of_device), u8(link_type))
};

struct ConnectionCompleteEvt {
  Status status = Status::kSuccess;
  ConnectionHandle handle = kInvalidHandle;
  BdAddr bdaddr;
  std::uint8_t link_type = 0x01;
  std::uint8_t encryption_enabled = 0x00;

  BLAP_HCI_EVENT(ConnectionCompleteEvt, ev::kConnectionComplete, "HCI_Connection_Complete",
                 u8(status), u16(handle), addr(bdaddr), u8(link_type), u8(encryption_enabled))
};

struct DisconnectionCompleteEvt {
  Status status = Status::kSuccess;
  ConnectionHandle handle = kInvalidHandle;
  Status reason = Status::kRemoteUserTerminatedConnection;

  BLAP_HCI_EVENT(DisconnectionCompleteEvt, ev::kDisconnectionComplete, "HCI_Disconnection_Complete",
                 u8(status), u16(handle), u8(reason))
};

struct AuthenticationCompleteEvt {
  Status status = Status::kSuccess;
  ConnectionHandle handle = kInvalidHandle;

  BLAP_HCI_EVENT(AuthenticationCompleteEvt, ev::kAuthenticationComplete,
                 "HCI_Authentication_Complete", u8(status), u16(handle))
};

struct RemoteNameRequestCompleteEvt {
  Status status = Status::kSuccess;
  BdAddr bdaddr;
  std::string remote_name;

  BLAP_HCI_EVENT(RemoteNameRequestCompleteEvt, ev::kRemoteNameRequestComplete,
                 "HCI_Remote_Name_Request_Complete", u8(status), addr(bdaddr),
                 padded_name<248>(remote_name))
};

struct EncryptionChangeEvt {
  Status status = Status::kSuccess;
  ConnectionHandle handle = kInvalidHandle;
  std::uint8_t encryption_enabled = 0x01;

  BLAP_HCI_EVENT(EncryptionChangeEvt, ev::kEncryptionChange, "HCI_Encryption_Change", u8(status),
                 u16(handle), u8(encryption_enabled))
};

/// Controller asks the host for the stored link key of a peer. The host
/// answers with Link_Key_Request_Reply (key in plaintext over the HCI) or
/// the negative reply if no bond exists.
struct LinkKeyRequestEvt {
  BdAddr bdaddr;

  BLAP_HCI_EVENT(LinkKeyRequestEvt, ev::kLinkKeyRequest, "HCI_Link_Key_Request", addr(bdaddr))
};

/// Controller hands a freshly generated link key to the host for storage —
/// the other plaintext key crossing the HCI, also captured by HCI dump.
struct LinkKeyNotificationEvt {
  BdAddr bdaddr;
  crypto::LinkKey link_key{};
  crypto::LinkKeyType key_type = crypto::LinkKeyType::kUnauthenticatedCombinationP192;

  BLAP_HCI_EVENT(LinkKeyNotificationEvt, ev::kLinkKeyNotification, "HCI_Link_Key_Notification",
                 addr(bdaddr), lsb_key(link_key), u8(key_type))
};

struct IoCapabilityRequestEvt {
  BdAddr bdaddr;

  BLAP_HCI_EVENT(IoCapabilityRequestEvt, ev::kIoCapabilityRequest, "HCI_IO_Capability_Request",
                 addr(bdaddr))
};

/// Legacy pairing: controller asks the host for the PIN code.
struct PinCodeRequestEvt {
  BdAddr bdaddr;

  BLAP_HCI_EVENT(PinCodeRequestEvt, ev::kPinCodeRequest, "HCI_PIN_Code_Request", addr(bdaddr))
};

struct IoCapabilityResponseEvt {
  BdAddr bdaddr;
  IoCapability io_capability = IoCapability::kDisplayYesNo;
  std::uint8_t oob_data_present = 0x00;
  std::uint8_t authentication_requirements = 0x03;

  BLAP_HCI_EVENT(IoCapabilityResponseEvt, ev::kIoCapabilityResponse, "HCI_IO_Capability_Response",
                 addr(bdaddr), enum_byte<0x03>(io_capability), u8(oob_data_present),
                 u8(authentication_requirements))
};

struct UserConfirmationRequestEvt {
  BdAddr bdaddr;
  std::uint32_t numeric_value = 0;  // six-digit value from g()

  BLAP_HCI_EVENT(UserConfirmationRequestEvt, ev::kUserConfirmationRequest,
                 "HCI_User_Confirmation_Request", addr(bdaddr), u32(numeric_value))
};

struct SimplePairingCompleteEvt {
  Status status = Status::kSuccess;
  BdAddr bdaddr;

  BLAP_HCI_EVENT(SimplePairingCompleteEvt, ev::kSimplePairingComplete,
                 "HCI_Simple_Pairing_Complete", u8(status), addr(bdaddr))
};

// --- registry ------------------------------------------------------------------

using EventRow = layout::Row<std::uint8_t, HciPacket>;

/// One row per known event code, ascending: a typed row per struct above,
/// plus a name-only row for the struct-less Return_Link_Keys.
[[nodiscard]] std::span<const EventRow> event_rows();

}  // namespace blap::hci
