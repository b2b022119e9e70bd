#include "hci/commands.hpp"

namespace blap::hci {
namespace {

constexpr CommandRow kCommands[] = {
    BLAP_LAYOUT_ROW(InquiryCmd),
    {op::kInquiryCancel, "HCI_Inquiry_Cancel"},
    BLAP_LAYOUT_ROW(CreateConnectionCmd),
    BLAP_LAYOUT_ROW(DisconnectCmd),
    BLAP_LAYOUT_ROW(AcceptConnectionRequestCmd),
    BLAP_LAYOUT_ROW(RejectConnectionRequestCmd),
    BLAP_LAYOUT_ROW(LinkKeyRequestReplyCmd),
    BLAP_LAYOUT_ROW(LinkKeyRequestNegativeReplyCmd),
    BLAP_LAYOUT_ROW(PinCodeRequestReplyCmd),
    BLAP_LAYOUT_ROW(PinCodeRequestNegativeReplyCmd),
    BLAP_LAYOUT_ROW(AuthenticationRequestedCmd),
    BLAP_LAYOUT_ROW(SetConnectionEncryptionCmd),
    BLAP_LAYOUT_ROW(RemoteNameRequestCmd),
    BLAP_LAYOUT_ROW(IoCapabilityRequestReplyCmd),
    BLAP_LAYOUT_ROW(UserConfirmationRequestReplyCmd),
    BLAP_LAYOUT_ROW(UserConfirmationRequestNegativeReplyCmd),
    {ResetCmd::kCode, ResetCmd::kName},
    {op::kReadStoredLinkKey, "HCI_Read_Stored_Link_Key"},
    BLAP_LAYOUT_ROW(WriteLocalNameCmd),
    BLAP_LAYOUT_ROW(WriteScanEnableCmd),
    BLAP_LAYOUT_ROW(WriteClassOfDeviceCmd),
    BLAP_LAYOUT_ROW(WriteSimplePairingModeCmd),
    {ReadBdAddrCmd::kCode, ReadBdAddrCmd::kName},
};
static_assert(std::ranges::is_sorted(kCommands, {}, &CommandRow::code));

}  // namespace

std::span<const CommandRow> command_rows() { return kCommands; }

const char* opcode_name(std::uint16_t op_value) {
  const CommandRow* row = layout::find_row(command_rows(), op_value);
  return row != nullptr ? row->name : "HCI_Unknown_Command";
}

}  // namespace blap::hci
