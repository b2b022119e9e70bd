// codec_harness.hpp — shared codec round-trip oracles.
//
// One set of codec invariants, two consumers: the seeded gtest suite
// (tests/test_codec_fuzz.cpp) and the coverage-guided fuzz targets
// (fuzz_hci_codec / fuzz_lmp_codec). Keeping the check bodies here means
// the two can never drift — a property the gtest asserts and the fuzzer
// explores is, by construction, the same property.
//
// The invariants, per codec:
//
//   * round trip      — encode → parse wire → decode params → re-encode
//                       must reproduce the first wire bytes exactly.
//   * prefix rejects  — every strict prefix of a parameter block decodes
//                       to nullopt (truncation never yields partial data).
//   * padding tolerated — a valid block plus trailing garbage either
//                       rejects or decodes to the same value (leading
//                       fields, tail ignored — real controllers tolerate
//                       padded commands); a layout ending in a raw rest
//                       absorbs the garbage into that field instead.
//   * canonical idempotence (arbitrary inputs) — whatever decode() accepts,
//                       re-encoding and decoding again is a fixed point.
//
// All checks return a CheckResult instead of asserting, so the fuzzer can
// treat a failure as a finding and the gtest can print the detail.
#pragma once

#include <optional>
#include <string>

#include "controller/lmp.hpp"
#include "fuzz/coverage.hpp"
#include "hci/layout.hpp"
#include "hci/packets.hpp"

namespace blap::fuzz {

struct CheckResult {
  bool ok = true;
  std::string detail;
};

[[nodiscard]] inline CheckResult check_fail(std::string detail) {
  return {false, std::move(detail)};
}

// --- structured round trips (gtest + fuzz seed validation) -------------------

/// H4 framing: to_wire → from_wire → to_wire is the identity.
[[nodiscard]] CheckResult check_h4_round_trip(const hci::HciPacket& packet);

/// LMP PDU framing: to_air_frame → from_air_frame → to_air_frame identity,
/// with opcode and payload preserved.
[[nodiscard]] CheckResult check_lmp_round_trip(const controller::LmpPdu& pdu);

/// The registry-row contract: `value` is a typed PDU's wire form (an HCI
/// packet or an LMP payload) and `row` the layout row of its type. Checks
/// round trip + prefix rejection + padding tolerance; a layout ending in a
/// raw rest must instead absorb the padding into its value.
template <typename Code, typename Wire>
[[nodiscard]] CheckResult check_row_round_trip(const hci::layout::Row<Code, Wire>& row,
                                               const Wire& value);

/// Full command-struct contract, through the real H4 wire form.
template <typename Cmd>
[[nodiscard]] CheckResult check_command_round_trip(const Cmd& cmd,
                                                   const char* label = "command") {
  return check_row_round_trip(hci::layout::typed_row<Cmd>(label), cmd.encode());
}

/// Full event-struct contract (same shape as commands).
template <typename Evt>
[[nodiscard]] CheckResult check_event_round_trip(const Evt& evt,
                                                 const char* label = "event") {
  return check_row_round_trip(hci::layout::typed_row<Evt>(label), evt.encode());
}

// --- arbitrary-input probes (fuzz targets) -----------------------------------

/// Feed arbitrary bytes through the H4 parser and the typed HCI decoder
/// whose registry row matches the opcode/event code. Asserts canonical idempotence for
/// whatever the decoders accept, plus header/length consistency for ACL
/// packets. Emits shape features to `sink` when non-null.
[[nodiscard]] CheckResult check_hci_wire(BytesView wire, FeatureSink* sink);

/// Same for the LMP/ACL air-frame surface: framing parse, the typed payload
/// decoder of the opcode's registry row, canonical idempotence.
[[nodiscard]] CheckResult check_lmp_frame(BytesView frame, FeatureSink* sink);

}  // namespace blap::fuzz
