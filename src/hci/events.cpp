#include "hci/events.hpp"

namespace blap::hci {
namespace {

constexpr EventRow kEvents[] = {
    BLAP_LAYOUT_ROW(InquiryCompleteEvt),
    BLAP_LAYOUT_ROW(InquiryResultEvt),
    BLAP_LAYOUT_ROW(ConnectionCompleteEvt),
    BLAP_LAYOUT_ROW(ConnectionRequestEvt),
    BLAP_LAYOUT_ROW(DisconnectionCompleteEvt),
    BLAP_LAYOUT_ROW(AuthenticationCompleteEvt),
    BLAP_LAYOUT_ROW(RemoteNameRequestCompleteEvt),
    BLAP_LAYOUT_ROW(EncryptionChangeEvt),
    BLAP_LAYOUT_ROW(CommandCompleteEvt),
    BLAP_LAYOUT_ROW(CommandStatusEvt),
    {ev::kReturnLinkKeys, "HCI_Return_Link_Keys"},
    BLAP_LAYOUT_ROW(PinCodeRequestEvt),
    BLAP_LAYOUT_ROW(LinkKeyRequestEvt),
    BLAP_LAYOUT_ROW(LinkKeyNotificationEvt),
    BLAP_LAYOUT_ROW(ExtendedInquiryResultEvt),
    BLAP_LAYOUT_ROW(IoCapabilityRequestEvt),
    BLAP_LAYOUT_ROW(IoCapabilityResponseEvt),
    BLAP_LAYOUT_ROW(UserConfirmationRequestEvt),
    BLAP_LAYOUT_ROW(SimplePairingCompleteEvt),
};
static_assert(std::ranges::is_sorted(kEvents, {}, &EventRow::code));

}  // namespace

std::span<const EventRow> event_rows() { return kEvents; }

const char* event_name(std::uint8_t code) {
  const EventRow* row = layout::find_row(event_rows(), code);
  return row != nullptr ? row->name : "HCI_Unknown_Event";
}

const char* to_string(Status status) {
  switch (status) {
    case Status::kSuccess: return "Success";
    case Status::kUnknownConnectionIdentifier: return "Unknown Connection Identifier";
    case Status::kPageTimeout: return "Page Timeout";
    case Status::kAuthenticationFailure: return "Authentication Failure";
    case Status::kPinOrKeyMissing: return "PIN or Key Missing";
    case Status::kConnectionTimeout: return "Connection Timeout";
    case Status::kConnectionAlreadyExists: return "Connection Already Exists";
    case Status::kConnectionAcceptTimeout: return "Connection Accept Timeout Exceeded";
    case Status::kRemoteUserTerminatedConnection: return "Remote User Terminated Connection";
    case Status::kConnectionTerminatedByLocalHost: return "Connection Terminated By Local Host";
    case Status::kPairingNotAllowed: return "Pairing Not Allowed";
    case Status::kLmpResponseTimeout: return "LMP Response Timeout";
  }
  return "Unknown Status";
}

const char* to_string(IoCapability capability) {
  switch (capability) {
    case IoCapability::kDisplayOnly: return "DisplayOnly";
    case IoCapability::kDisplayYesNo: return "DisplayYesNo";
    case IoCapability::kKeyboardOnly: return "KeyboardOnly";
    case IoCapability::kNoInputNoOutput: return "NoInputNoOutput";
  }
  return "?";
}

}  // namespace blap::hci
