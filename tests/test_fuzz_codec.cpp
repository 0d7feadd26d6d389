// Fuzz-style robustness tests for the wire codec and snapshot
// deserializers: random garbage, random truncations and random single-byte
// corruptions of valid encodings must either decode to *something* or throw
// DecodeError — never crash, hang, or allocate absurdly.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/net/message.h"
#include "src/snapshot/serializer.h"

namespace adgc {
namespace {

std::vector<MessagePayload> sample_messages() {
  std::vector<MessagePayload> out;
  InvokeMsg inv;
  inv.ref = make_ref_id(1, 2);
  inv.ic = 3;
  inv.target = {2, 4};
  inv.caller = {1, 9};
  inv.effect = InvokeEffect::kStoreArgs;
  inv.args = {{make_ref_id(1, 3), {3, 8}}};
  inv.payload.assign(64, std::byte{7});
  out.emplace_back(inv);

  ReplyMsg rep;
  rep.ref = make_ref_id(4, 1);
  rep.ic = 17;
  out.emplace_back(rep);

  NewSetStubsMsg nss;
  nss.export_seq = 5;
  nss.live = {make_ref_id(0, 1), make_ref_id(0, 2)};
  out.emplace_back(nss);

  AddScionMsg add;
  add.ref = make_ref_id(2, 2);
  add.target_seq = 11;
  add.holder = 6;
  out.emplace_back(add);

  CdmMsg cdm;
  cdm.detection = {1, 2};
  cdm.candidate = make_ref_id(1, 1);
  cdm.via = make_ref_id(2, 2);
  cdm.source = {{make_ref_id(1, 1), 0}, {make_ref_id(3, 3), 1}};
  cdm.target = {{make_ref_id(2, 2), 0}};
  out.emplace_back(cdm);

  AddScionAckMsg ack;
  ack.ref = make_ref_id(2, 2);
  ack.handshake = 41;
  out.emplace_back(ack);

  EvictedNackMsg nack;
  nack.evicted_incarnation = 3;
  out.emplace_back(nack);
  return out;
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomGarbageNeverCrashes) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> bytes(rng.below(200));
    for (auto& b : bytes) b = static_cast<std::byte>(rng.below(256));
    try {
      const MessagePayload m = decode_message(bytes);
      // If it decoded, re-encoding must succeed (the decoder only accepts
      // well-formed content).
      (void)encode_message(m);
    } catch (const DecodeError&) {
      // expected for almost all inputs
    }
  }
}

TEST_P(CodecFuzz, TruncationsOfValidMessages) {
  Rng rng(GetParam() + 1000);
  for (const MessagePayload& msg : sample_messages()) {
    const auto bytes = encode_message(msg);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<std::byte> trunc(bytes.begin(),
                                   bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_THROW(decode_message(trunc), DecodeError)
          << message_kind(msg) << " cut=" << cut;
    }
  }
}

TEST_P(CodecFuzz, SingleByteCorruptions) {
  Rng rng(GetParam() + 2000);
  for (const MessagePayload& msg : sample_messages()) {
    const auto bytes = encode_message(msg);
    for (int iter = 0; iter < 200; ++iter) {
      auto mutated = bytes;
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] = static_cast<std::byte>(rng.below(256));
      try {
        const MessagePayload m = decode_message(mutated);
        (void)encode_message(m);  // decoded → must be internally consistent
      } catch (const DecodeError&) {
      }
    }
  }
}

TEST_P(CodecFuzz, SnapshotDeserializersSurviveGarbage) {
  Rng rng(GetParam() + 3000);
  NaiveSerializer naive;
  BinarySerializer binary;
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::byte> bytes(rng.below(400));
    for (auto& b : bytes) b = static_cast<std::byte>(rng.below(256));
    EXPECT_THROW(binary.deserialize(bytes), DecodeError) << iter;
    try {
      (void)naive.deserialize(bytes);
    } catch (const DecodeError&) {
    }
  }
}

TEST_P(CodecFuzz, SnapshotTruncations) {
  Rng rng(GetParam() + 4000);
  SnapshotData snap;
  snap.pid = 1;
  for (ObjectSeq i = 1; i <= 10; ++i) {
    SnapshotData::Obj o;
    o.seq = i;
    if (i > 1) o.local_fields.push_back(i - 1);
    o.payload.assign(8, std::byte{static_cast<unsigned char>(i)});
    snap.objects.push_back(std::move(o));
  }
  snap.stubs.push_back({make_ref_id(1, 1), {2, 2}, 3});
  snap.scions.push_back({make_ref_id(2, 1), 3, 4, 5});

  BinarySerializer binary;
  const auto bytes = binary.serialize(snap);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t cut = 1 + rng.below(bytes.size() - 1);
    std::vector<std::byte> trunc(bytes.begin(),
                                 bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(binary.deserialize(trunc), DecodeError);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace adgc
