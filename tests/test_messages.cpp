// Wire codec round-trip tests for every message type, plus malformed-input
// rejection.
#include <gtest/gtest.h>

#include "src/net/message.h"

namespace adgc {
namespace {

template <typename T>
T round_trip(const T& msg) {
  const auto bytes = encode_message(MessagePayload{msg});
  const MessagePayload decoded = decode_message(bytes);
  const T* out = std::get_if<T>(&decoded);
  EXPECT_NE(out, nullptr) << "decoded to a different alternative";
  return out ? *out : T{};
}

TEST(Messages, InvokeRoundTrip) {
  InvokeMsg m;
  m.ref = make_ref_id(1, 5);
  m.ic = 42;
  m.target = ObjectId{2, 7};
  m.caller = ObjectId{1, 3};
  m.effect = InvokeEffect::kStoreArgs;
  m.args = {{make_ref_id(1, 6), ObjectId{3, 9}}, {kNoRef, ObjectId{2, 1}}};
  m.want_reply = true;
  m.call_id = 77;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, InvokeEmptyArgs) {
  InvokeMsg m;
  m.ref = make_ref_id(9, 1);
  m.effect = InvokeEffect::kTouch;
  m.want_reply = false;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, ReplyRoundTrip) {
  ReplyMsg m;
  m.ref = make_ref_id(4, 4);
  m.ic = 1234567890123ULL;
  m.call_id = 55;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, NewSetStubsRoundTrip) {
  NewSetStubsMsg m;
  m.export_seq = 17;
  m.live = {make_ref_id(0, 1), make_ref_id(0, 2), make_ref_id(5, 900)};
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, NewSetStubsEmpty) {
  NewSetStubsMsg m;
  m.export_seq = 1;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, AddScionRoundTrip) {
  AddScionMsg m;
  m.ref = make_ref_id(3, 14);
  m.target_seq = 159;
  m.holder = 26;
  m.handshake = 535;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, AddScionAckRoundTrip) {
  AddScionAckMsg m;
  m.ref = make_ref_id(2, 71);
  m.handshake = 828;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, CdmRoundTrip) {
  CdmMsg m;
  m.detection = DetectionId{2, 99};
  m.candidate = make_ref_id(2, 1);
  m.via = make_ref_id(3, 7);
  m.via_ic = 4;
  m.hops = 12;
  m.source = {{make_ref_id(2, 1), 4}, {make_ref_id(4, 2), 0}};
  m.target = {{make_ref_id(3, 7), 4}};
  EXPECT_EQ(round_trip(m), m);
}

/// Tag byte followed by `body_len` zero bytes. For every kind the codec
/// ever had, some zero-filled body of at most 40 bytes decodes.
std::vector<std::byte> zero_body(std::uint8_t tag, std::size_t body_len) {
  std::vector<std::byte> bytes(body_len + 1, std::byte{0});
  bytes[0] = std::byte{tag};
  return bytes;
}

TEST(Messages, UnknownTagRejected) {
  std::vector<std::byte> bytes = {std::byte{0xEE}};
  EXPECT_THROW(decode_message(bytes), DecodeError);
  // Tags 7-13 belong to the sim-harness baselines (src/baseline): no body
  // makes them decode here.
  for (std::uint8_t tag = 7; tag <= 13; ++tag) {
    for (std::size_t len = 0; len <= 40; ++len) {
      EXPECT_THROW(decode_message(zero_body(tag, len)), DecodeError)
          << "tag=" << int{tag} << " len=" << len;
    }
  }
}

TEST(Messages, EmptyBufferRejected) {
  EXPECT_THROW(decode_message(std::vector<std::byte>{}), DecodeError);
}

TEST(Messages, TruncatedRejected) {
  InvokeMsg m;
  m.ref = make_ref_id(1, 5);
  auto bytes = encode_message(MessagePayload{m});
  for (std::size_t cut = 1; cut < bytes.size(); cut += 3) {
    std::vector<std::byte> trunc(bytes.begin(),
                                 bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_message(trunc), DecodeError) << "cut=" << cut;
  }
}

TEST(Messages, TrailingGarbageRejected) {
  ReplyMsg m;
  m.ref = make_ref_id(1, 1);
  auto bytes = encode_message(MessagePayload{m});
  bytes.push_back(std::byte{0});
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Messages, BadInvokeEffectRejected) {
  InvokeMsg m;
  m.ref = make_ref_id(1, 5);
  auto bytes = encode_message(MessagePayload{m});
  // The effect byte sits after tag(1)+ref(8)+ic(8)+target(12)+caller(12).
  bytes[1 + 8 + 8 + 12 + 12] = std::byte{200};
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Messages, KindNames) {
  EXPECT_STREQ(message_kind(MessagePayload{InvokeMsg{}}), "Invoke");
  EXPECT_STREQ(message_kind(MessagePayload{CdmMsg{}}), "Cdm");
  EXPECT_STREQ(message_kind(MessagePayload{NewSetStubsMsg{}}), "NewSetStubs");
  EXPECT_STREQ(message_kind(MessagePayload{BatchMsg{}}), "Batch");
}

BatchMsg sample_batch() {
  CdmMsg cdm;
  cdm.detection = DetectionId{3, 9};
  cdm.candidate = make_ref_id(3, 1);
  NewSetStubsMsg nss;
  nss.export_seq = 5;
  nss.live = {make_ref_id(0, 1), make_ref_id(0, 2)};
  AddScionAckMsg ack;
  ack.ref = make_ref_id(4, 4);
  ack.handshake = 77;
  BatchMsg batch;
  batch.items.push_back(encode_message(MessagePayload{cdm}));
  batch.items.push_back(encode_message(MessagePayload{nss}));
  batch.items.push_back(encode_message(MessagePayload{ack}));
  return batch;
}

TEST(Messages, BatchRoundTrip) {
  const BatchMsg batch = sample_batch();
  EXPECT_EQ(round_trip(batch), batch);
  const auto items = decode_batch_items(batch);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_STREQ(message_kind(items[0]), "Cdm");
  EXPECT_STREQ(message_kind(items[1]), "NewSetStubs");
  EXPECT_STREQ(message_kind(items[2]), "AddScionAck");
  EXPECT_EQ(std::get<AddScionAckMsg>(items[2]).handshake, 77u);
}

TEST(Messages, EmptyBatchRejected) {
  // tag + count=0: a batch must carry at least one item.
  std::vector<std::byte> bytes = {std::byte{14}, std::byte{0}, std::byte{0},
                                  std::byte{0}, std::byte{0}};
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Messages, BatchTruncationRejected) {
  const auto bytes = encode_message(MessagePayload{sample_batch()});
  for (std::size_t cut = 1; cut < bytes.size(); cut += 5) {
    std::vector<std::byte> trunc(bytes.begin(),
                                 bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_message(trunc), DecodeError) << "cut=" << cut;
  }
}

TEST(Messages, BatchHugeCountRejected) {
  // Item count far beyond what the remaining bytes could hold must be
  // refused up front, before any per-item allocation.
  auto bytes = encode_message(MessagePayload{sample_batch()});
  bytes[1] = std::byte{0xff};
  bytes[2] = std::byte{0xff};
  bytes[3] = std::byte{0xff};
  bytes[4] = std::byte{0x7f};
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Messages, NestedBatchRejected) {
  BatchMsg inner;
  inner.items.push_back(encode_message(MessagePayload{ReplyMsg{}}));
  BatchMsg outer;
  outer.items.push_back(encode_message(MessagePayload{inner}));
  const auto bytes = encode_message(MessagePayload{outer});
  EXPECT_THROW(decode_message(bytes), DecodeError);
  // decode_batch_items applies the same rule when handed a hand-built batch.
  EXPECT_THROW(decode_batch_items(outer), DecodeError);
}

TEST(Messages, BatchEmptyItemRejected) {
  // tag + count=1 + item length 0.
  std::vector<std::byte> bytes = {std::byte{14}, std::byte{1}, std::byte{0},
                                  std::byte{0},  std::byte{0}, std::byte{0},
                                  std::byte{0},  std::byte{0}, std::byte{0}};
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Messages, BatchItemGarbagePoisonsWholeBatch) {
  BatchMsg batch = sample_batch();
  batch.items[1][0] = std::byte{0xEE};  // unknown tag inside item 1
  EXPECT_THROW(decode_batch_items(batch), DecodeError)
      << "a corrupt item must poison the whole batch, not skip it";

  // An item carrying a baseline tag (a zero-filled back-trace request) is
  // just as unknown to the production codec.
  BatchMsg retired = sample_batch();
  retired.items.push_back(zero_body(7, 32));
  EXPECT_THROW(decode_batch_items(retired), DecodeError);
}

}  // namespace
}  // namespace adgc
