// test_codec_fuzz.cpp — seeded fuzz round-trips for the HCI and LMP codecs.
//
// The check bodies live in src/fuzz/codec_harness.*, shared verbatim with
// the coverage-guided fuzz targets (fuzz_hci_codec / fuzz_lmp_codec): the
// property this suite asserts on randomized-but-valid values is, by
// construction, the same property the fuzzer explores on arbitrary bytes.
// Per value the harness checks:
//
//   * encode -> decode -> encode reproduces the first wire bytes,
//   * every strict prefix of the parameter block decodes to nullopt
//     (truncation rejects cleanly, no UB under the ASan/UBSan CI),
//   * a valid block + trailing garbage either rejects or decodes to the
//     same value — matching real controllers' tolerance of padded commands.
//
// Seeds are fixed: failures reproduce exactly.
#include <gtest/gtest.h>

#include <span>

#include "common/rng.hpp"
#include "controller/lmp.hpp"
#include "fuzz/codec_harness.hpp"
#include "hci/commands.hpp"
#include "hci/events.hpp"
#include "hci/packets.hpp"

namespace blap::hci {
namespace {

using fuzz::check_command_round_trip;
using fuzz::check_event_round_trip;
using fuzz::check_h4_round_trip;
using fuzz::check_hci_wire;
using fuzz::check_lmp_frame;
using fuzz::check_lmp_round_trip;
using fuzz::CheckResult;

constexpr int kRounds = 200;

BdAddr random_addr(Rng& rng) { return BdAddr(rng.bytes<6>()); }

// --- generic H4 framing ------------------------------------------------------

TEST(CodecFuzz, H4WireRoundTrip) {
  Rng rng(0xF00D);
  constexpr PacketType kTypes[] = {PacketType::kCommand, PacketType::kAclData,
                                   PacketType::kScoData, PacketType::kEvent};
  for (int i = 0; i < kRounds; ++i) {
    HciPacket pkt;
    pkt.type = kTypes[rng.uniform(4)];
    pkt.payload = rng.buffer(rng.uniform(600));
    const CheckResult r = check_h4_round_trip(pkt);
    ASSERT_TRUE(r.ok) << r.detail;
  }
}

TEST(CodecFuzz, H4RejectsEmptyAndUnknownType) {
  EXPECT_FALSE(HciPacket::from_wire({}).has_value());
  Rng rng(0xBEEF);
  for (int i = 0; i < kRounds; ++i) {
    Bytes wire = rng.buffer(1 + rng.uniform(64));
    wire[0] = static_cast<std::uint8_t>(5 + rng.uniform(200));  // not an H4 type
    EXPECT_FALSE(HciPacket::from_wire(wire).has_value());
  }
}

// The fuzz targets' arbitrary-input probes must accept every well-formed
// wire this suite generates — a seed input that trips the probe would make
// the fuzzer report valid traffic as a finding.
TEST(CodecFuzz, ArbitraryInputProbeAcceptsValidWires) {
  Rng rng(0xCAFE);
  for (int i = 0; i < kRounds; ++i) {
    DisconnectCmd cmd;
    cmd.handle = static_cast<ConnectionHandle>(rng.uniform(0x0EFF));
    const CheckResult r = check_hci_wire(cmd.encode().to_wire(), nullptr);
    ASSERT_TRUE(r.ok) << r.detail;

    controller::LmpPdu pdu;
    pdu.opcode = controller::LmpOpcode::kPing;
    pdu.payload = rng.buffer(rng.uniform(16));
    const CheckResult lmp = check_lmp_frame(pdu.to_air_frame(), nullptr);
    ASSERT_TRUE(lmp.ok) << lmp.detail;
  }
}

// --- typed commands ----------------------------------------------------------

// Round-trips one randomized command/event value through the shared harness
// body (round trip, strict-prefix rejection, padding tolerance).
template <typename Cmd, typename MakeFn>
void fuzz_command(std::uint64_t seed, MakeFn make) {
  Rng rng(seed);
  for (int i = 0; i < kRounds; ++i) {
    const Cmd cmd = make(rng);
    const CheckResult r = check_command_round_trip(cmd);
    ASSERT_TRUE(r.ok) << r.detail;
  }
}

TEST(CodecFuzz, CreateConnectionCmd) {
  fuzz_command<CreateConnectionCmd>(1, [](Rng& rng) {
    CreateConnectionCmd cmd;
    cmd.bdaddr = random_addr(rng);
    cmd.packet_type = static_cast<std::uint16_t>(rng.next_u64());
    cmd.page_scan_repetition_mode = static_cast<std::uint8_t>(rng.uniform(3));
    cmd.reserved = 0;
    cmd.clock_offset = static_cast<std::uint16_t>(rng.next_u64());
    cmd.allow_role_switch = static_cast<std::uint8_t>(rng.uniform(2));
    return cmd;
  });
}

TEST(CodecFuzz, DisconnectCmd) {
  fuzz_command<DisconnectCmd>(2, [](Rng& rng) {
    DisconnectCmd cmd;
    cmd.handle = static_cast<ConnectionHandle>(rng.uniform(0x0EFF));
    cmd.reason = static_cast<Status>(rng.uniform(0x40));
    return cmd;
  });
}

TEST(CodecFuzz, LinkKeyRequestReplyCmd) {
  fuzz_command<LinkKeyRequestReplyCmd>(3, [](Rng& rng) {
    LinkKeyRequestReplyCmd cmd;
    cmd.bdaddr = random_addr(rng);
    cmd.link_key = rng.bytes<16>();
    return cmd;
  });
}

TEST(CodecFuzz, AuthenticationRequestedCmd) {
  fuzz_command<AuthenticationRequestedCmd>(4, [](Rng& rng) {
    AuthenticationRequestedCmd cmd;
    cmd.handle = static_cast<ConnectionHandle>(rng.uniform(0x0EFF));
    return cmd;
  });
}

TEST(CodecFuzz, SetConnectionEncryptionCmd) {
  fuzz_command<SetConnectionEncryptionCmd>(5, [](Rng& rng) {
    SetConnectionEncryptionCmd cmd;
    cmd.handle = static_cast<ConnectionHandle>(rng.uniform(0x0EFF));
    cmd.encryption_enable = static_cast<std::uint8_t>(rng.uniform(2));
    return cmd;
  });
}

// --- typed events ------------------------------------------------------------

template <typename Evt, typename MakeFn>
void fuzz_event(std::uint64_t seed, MakeFn make) {
  Rng rng(seed);
  for (int i = 0; i < kRounds; ++i) {
    const Evt evt = make(rng);
    const CheckResult r = check_event_round_trip(evt);
    ASSERT_TRUE(r.ok) << r.detail;
  }
}

TEST(CodecFuzz, ConnectionCompleteEvt) {
  fuzz_event<ConnectionCompleteEvt>(6, [](Rng& rng) {
    ConnectionCompleteEvt evt;
    evt.status = static_cast<Status>(rng.uniform(0x40));
    evt.handle = static_cast<ConnectionHandle>(rng.uniform(0x0EFF));
    evt.bdaddr = random_addr(rng);
    evt.link_type = static_cast<std::uint8_t>(rng.uniform(2));
    evt.encryption_enabled = static_cast<std::uint8_t>(rng.uniform(2));
    return evt;
  });
}

TEST(CodecFuzz, LinkKeyNotificationEvt) {
  fuzz_event<LinkKeyNotificationEvt>(7, [](Rng& rng) {
    LinkKeyNotificationEvt evt;
    evt.bdaddr = random_addr(rng);
    evt.link_key = rng.bytes<16>();
    evt.key_type = static_cast<crypto::LinkKeyType>(rng.uniform(8));
    return evt;
  });
}

// --- every registered layout ----------------------------------------------------

// Walks every typed row of the three registries through the same oracle
// check_command_round_trip/check_event_round_trip use, on values whose every
// field is drawn from its kind's seeded generator. Returns the typed-row count.
template <typename Code, typename Wire>
std::size_t round_trip_every_row(std::span<const layout::Row<Code, Wire>> rows,
                                 std::uint64_t seed) {
  std::size_t typed = 0;
  for (const auto& row : rows) {
    if (row.canon == nullptr) continue;
    ++typed;
    Rng rng(seed);
    for (int i = 0; i < kRounds; ++i) {
      const CheckResult r = fuzz::check_row_round_trip(row, row.draw(rng));
      EXPECT_TRUE(r.ok) << r.detail;
      if (!r.ok) break;
    }
  }
  return typed;
}

TEST(CodecFuzz, EveryRegisteredLayoutRoundTrips) {
  EXPECT_EQ(round_trip_every_row(command_rows(), 13), 19u);
  EXPECT_EQ(round_trip_every_row(event_rows(), 14), 18u);
  // LmpIoCap serves both IO-capability opcodes.
  EXPECT_EQ(round_trip_every_row(controller::lmp_rows(), 15), 4u);
}

// Every event carries at least one parameter, so an empty block rejects.
TEST(CodecFuzz, EveryEventDecoderRejectsEmptyParams) {
  for (const EventRow& row : event_rows()) {
    if (row.canon != nullptr) {
      EXPECT_FALSE(row.canon({}).has_value()) << row.label;
    }
  }
}

// Name-only rows name the codes that have no struct (or no parameters).
TEST(CodecFuzz, RegistriesNameEveryCode) {
  EXPECT_EQ(command_rows().size(), 23u);
  EXPECT_EQ(event_rows().size(), 19u);
  EXPECT_EQ(controller::lmp_rows().size(),
            static_cast<std::size_t>(controller::LmpOpcode::kSresSc));
  EXPECT_STREQ(opcode_name(op::kLinkKeyRequestReply), "HCI_Link_Key_Request_Reply");
  EXPECT_STREQ(opcode_name(op::kInquiryCancel), "HCI_Inquiry_Cancel");
  EXPECT_STREQ(opcode_name(0x0000), "HCI_Unknown_Command");
  EXPECT_STREQ(event_name(ev::kReturnLinkKeys), "HCI_Return_Link_Keys");
  EXPECT_STREQ(event_name(0xFF), "HCI_Unknown_Event");
  EXPECT_STREQ(controller::to_string(controller::LmpOpcode::kEncapsulatedPublicKey),
               "LMP_encapsulated (public key)");
  EXPECT_STREQ(controller::to_string(static_cast<controller::LmpOpcode>(0)), "LMP_unknown");
}

// Read_BD_ADDR's return parameters: the controller's encode and the host's
// decode share one layout.
TEST(CodecFuzz, ReadBdAddrReturnRoundTrips) {
  const BdAddr addr = *BdAddr::parse("00:1b:7d:da:71:0a");
  const Bytes wire = ReadBdAddrReturn{.bdaddr = addr}.encode();
  EXPECT_EQ(wire, (Bytes{0x00, 0x0a, 0x71, 0xda, 0x7d, 0x1b, 0x00}));
  const auto back = ReadBdAddrReturn::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->bdaddr, addr);
  EXPECT_FALSE(ReadBdAddrReturn::decode(BytesView(wire).subspan(0, 6)).has_value());
}

// --- ACL fragments -----------------------------------------------------------

// The ACL header's u16 packs handle (bits 0-11), the Packet_Boundary flag
// (12-13) and the Broadcast flag (14-15). Continuation fragments (PB=1) and
// every other flag combination must round-trip through make_acl_fragment()
// and the accessors, and the declared data length must agree with the
// payload.
TEST(CodecFuzz, AclContinuationFragmentsRoundTrip) {
  Rng rng(11);
  for (int i = 0; i < kRounds; ++i) {
    const auto handle = static_cast<ConnectionHandle>(rng.uniform(0x1000));
    const auto pb = static_cast<std::uint8_t>(rng.uniform(4));
    const auto bc = static_cast<std::uint8_t>(rng.uniform(4));
    const Bytes data = rng.buffer(rng.uniform(48));

    const HciPacket pkt = make_acl_fragment(handle, pb, bc, data);
    ASSERT_EQ(pkt.type, PacketType::kAclData);
    ASSERT_TRUE(pkt.acl_handle().has_value());
    EXPECT_EQ(*pkt.acl_handle(), handle & 0x0FFF);
    ASSERT_TRUE(pkt.acl_pb_flag().has_value());
    EXPECT_EQ(*pkt.acl_pb_flag(), pb & 0x03);
    ASSERT_TRUE(pkt.acl_bc_flag().has_value());
    EXPECT_EQ(*pkt.acl_bc_flag(), bc & 0x03);
    ASSERT_TRUE(pkt.acl_data().has_value());
    EXPECT_EQ(to_bytes(*pkt.acl_data()), data);

    // H4 wire round trip preserves the flag bits exactly.
    const CheckResult r = check_h4_round_trip(pkt);
    ASSERT_TRUE(r.ok) << r.detail;
    // And the arbitrary-input probe's header/length consistency holds.
    const CheckResult probe = check_hci_wire(pkt.to_wire(), nullptr);
    ASSERT_TRUE(probe.ok) << probe.detail;
  }
}

TEST(CodecFuzz, AclHeaderTruncationRejects) {
  const HciPacket pkt = make_acl_fragment(0x0042, 1, 0, Bytes{1, 2, 3});
  const Bytes wire = pkt.to_wire();
  // Cutting anywhere inside the 4-byte ACL header (after the H4 type byte)
  // must make the accessors reject; cutting into the data must shrink
  // acl_data() consistently or reject, never read out of bounds.
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    const auto parsed = HciPacket::from_wire(BytesView(wire).subspan(0, cut));
    if (!parsed.has_value()) continue;
    if (parsed->payload.size() < 4) {
      EXPECT_FALSE(parsed->acl_handle().has_value());
      EXPECT_FALSE(parsed->acl_pb_flag().has_value());
      EXPECT_FALSE(parsed->acl_bc_flag().has_value());
    }
  }
  // make_acl() is the PB=0/BC=0 special case of make_acl_fragment().
  EXPECT_EQ(make_acl(0x0042, Bytes{9, 9}).to_wire(),
            make_acl_fragment(0x0042, 0, 0, Bytes{9, 9}).to_wire());
}

// --- LMP ---------------------------------------------------------------------

TEST(CodecFuzz, LmpPduRoundTrip) {
  Rng rng(8);
  for (int i = 0; i < kRounds; ++i) {
    controller::LmpPdu pdu;
    pdu.opcode = static_cast<controller::LmpOpcode>(
        1 + rng.uniform(static_cast<std::uint64_t>(controller::LmpOpcode::kSresSc)));
    pdu.payload = rng.buffer(rng.uniform(64));
    const CheckResult r = check_lmp_round_trip(pdu);
    ASSERT_TRUE(r.ok) << r.detail;
  }
}

TEST(CodecFuzz, LmpRejectsBadFrames) {
  // Empty, wrong channel, opcode 0, opcode out of range.
  EXPECT_FALSE(controller::LmpPdu::from_air_frame({}).has_value());
  Rng rng(9);
  for (int i = 0; i < kRounds; ++i) {
    Bytes frame = rng.buffer(2 + rng.uniform(32));
    frame[0] = static_cast<std::uint8_t>(2 + rng.uniform(250));  // not kLmp/kAcl channel
    EXPECT_FALSE(controller::LmpPdu::from_air_frame(frame).has_value());
    frame[0] = 0;  // LMP channel
    frame[1] = 0;  // opcode 0 is invalid
    EXPECT_FALSE(controller::LmpPdu::from_air_frame(frame).has_value());
    frame[1] = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(controller::LmpOpcode::kSresSc) + 1 + rng.uniform(100));
    EXPECT_FALSE(controller::LmpPdu::from_air_frame(frame).has_value());
  }
  // A channel byte alone (no opcode) is truncated.
  const Bytes only_channel = {0};
  EXPECT_FALSE(controller::LmpPdu::from_air_frame(only_channel).has_value());
}

TEST(CodecFuzz, LmpTypedPayloadsRejectTruncation) {
  Rng rng(10);
  for (int i = 0; i < kRounds; ++i) {
    controller::LmpIoCap iocap;
    iocap.io_capability = static_cast<std::uint8_t>(rng.uniform(4));
    iocap.oob_data_present = static_cast<std::uint8_t>(rng.uniform(2));
    iocap.authentication_requirements = static_cast<std::uint8_t>(rng.uniform(6));
    const Bytes enc = iocap.encode();
    const auto dec = controller::LmpIoCap::decode(enc);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->encode(), enc);
    for (std::size_t cut = 0; cut < enc.size(); ++cut)
      EXPECT_FALSE(controller::LmpIoCap::decode(BytesView(enc).subspan(0, cut)).has_value());

    controller::LmpNotAccepted na;
    na.rejected_opcode = static_cast<controller::LmpOpcode>(
        1 + rng.uniform(static_cast<std::uint64_t>(controller::LmpOpcode::kSresSc)));
    na.reason = static_cast<std::uint8_t>(rng.next_u64());
    const Bytes na_enc = na.encode();
    const auto na_dec = controller::LmpNotAccepted::decode(na_enc);
    ASSERT_TRUE(na_dec.has_value());
    EXPECT_EQ(na_dec->encode(), na_enc);
    for (std::size_t cut = 0; cut < na_enc.size(); ++cut)
      EXPECT_FALSE(
          controller::LmpNotAccepted::decode(BytesView(na_enc).subspan(0, cut)).has_value());
  }
}

// LmpPublicKey is the variable-length case: [width u8][x width bytes]
// [y width bytes] for widths 24 (P-192) and 32 (P-256). Every strict prefix
// — including cuts inside the coordinates, where a fixed-size checker would
// never look — must reject, and the declared width must bound the read.
TEST(CodecFuzz, LmpVariableLengthPublicKeyRejectsTruncation) {
  Rng rng(12);
  for (const std::size_t width : {std::size_t{24}, std::size_t{32}}) {
    for (int i = 0; i < kRounds / 4; ++i) {
      controller::LmpPublicKey key;
      key.x = rng.buffer(width);
      key.y = rng.buffer(width);
      const Bytes enc = key.encode();

      const auto dec = controller::LmpPublicKey::decode(enc);
      ASSERT_TRUE(dec.has_value());
      EXPECT_EQ(dec->x, key.x);
      EXPECT_EQ(dec->y, key.y);
      EXPECT_EQ(dec->encode(), enc);

      for (std::size_t cut = 0; cut < enc.size(); ++cut)
        EXPECT_FALSE(
            controller::LmpPublicKey::decode(BytesView(enc).subspan(0, cut)).has_value())
            << "width " << width << ", prefix of " << cut << " bytes decoded";

      // A width byte that promises more coordinate bytes than the frame
      // carries must not over-read: a P-192 frame relabelled P-256 rejects.
      if (width == 24) {
        Bytes lying = enc;
        lying[0] = 32;
        EXPECT_FALSE(controller::LmpPublicKey::decode(lying).has_value());
      }
    }
  }
  // Widths other than the two supported curves reject outright, however
  // many bytes follow.
  for (const int bad_width : {0, 1, 16, 25, 33, 255}) {
    Bytes frame{static_cast<std::uint8_t>(bad_width)};
    frame.resize(1 + 2 * static_cast<std::size_t>(bad_width), 0xAB);
    EXPECT_FALSE(controller::LmpPublicKey::decode(frame).has_value())
        << "width " << bad_width << " accepted";
  }
}

}  // namespace
}  // namespace blap::hci
