// ppgnn-wire codec (src/rpc/wire.h): frame headers, handshake bodies,
// Request/Response envelope encoding, deadline translation, and FrameReader
// stream reassembly.
//
// Four kinds of tests keep the codec honest:
//  * round-trips — encode, decode, field-for-field equality across every
//    status, both result modes, and the deadline edge cases;
//  * the DOCUMENTED BYTE LAYOUTS — the reference envelopes from
//    docs/wire-protocol.md are encoded here and asserted byte-by-byte
//    against the documented offsets, so the spec and the code cannot
//    drift apart silently.  If one of these assertions fails, either the
//    codec or the doc changed: fix whichever is wrong, in the same change;
//  * strict versioning — the wire has exactly one version, and every
//    frame header, Hello and HelloAck naming another one is refused with
//    an error that names it;
//  * corruption — every truncation, every out-of-range field, and every
//    single-byte change of the reference frames either fails cleanly or
//    decodes to an envelope that re-encodes to the same bytes.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "rpc/frame.h"
#include "rpc/wire.h"

namespace ppgnn::rpc {
namespace {

using serve::Priority;
using serve::ResultMode;
using serve::ServeStatus;

// --- Frame header ----------------------------------------------------------

TEST(WireFrame, HeaderRoundTrip) {
  FrameHeader h;
  h.body_len = 12345;
  h.type = MsgType::kResponse;
  std::uint8_t buf[kFrameHeaderBytes];
  encode_frame_header(h, buf);

  FrameHeader out;
  std::string err;
  ASSERT_TRUE(decode_frame_header(buf, &out, &err)) << err;
  EXPECT_EQ(out.body_len, 12345u);
  EXPECT_EQ(out.type, MsgType::kResponse);
  EXPECT_EQ(buf[5], kWireVersion);
}

TEST(WireFrame, HeaderRejectsBadVersionTypeAndSize) {
  FrameHeader h;
  h.body_len = 8;
  h.type = MsgType::kHello;
  std::uint8_t buf[kFrameHeaderBytes];
  encode_frame_header(h, buf);

  FrameHeader out;
  std::string err;

  std::uint8_t bad[kFrameHeaderBytes];
  // Any version byte but ours — older or newer — is refused, by number.
  for (const int v : {0, kWireVersion - 1, kWireVersion + 1, 255}) {
    std::memcpy(bad, buf, kFrameHeaderBytes);
    bad[5] = static_cast<std::uint8_t>(v);
    EXPECT_FALSE(decode_frame_header(bad, &out, &err)) << "version " << v;
    EXPECT_NE(err.find("version " + std::to_string(v)), std::string::npos)
        << err;
  }

  std::memcpy(bad, buf, kFrameHeaderBytes);
  bad[7] = 0x01;  // reserved byte
  EXPECT_FALSE(decode_frame_header(bad, &out, &err));
  EXPECT_NE(err.find("reserved"), std::string::npos) << err;

  std::memcpy(bad, buf, kFrameHeaderBytes);
  bad[4] = 0x7F;  // type byte
  EXPECT_FALSE(decode_frame_header(bad, &out, &err));
  EXPECT_NE(err.find("message type"), std::string::npos) << err;

  FrameHeader big;
  big.body_len = static_cast<std::uint32_t>(kMaxFrameBody) + 1;
  big.type = MsgType::kRequest;
  encode_frame_header(big, bad);
  EXPECT_FALSE(decode_frame_header(bad, &out, &err));
  EXPECT_NE(err.find("size cap"), std::string::npos) << err;
}

// --- Handshake -------------------------------------------------------------

TEST(WireHandshake, HelloRoundTrip) {
  const WireHello h;
  const auto body = encode_hello(h);
  ASSERT_EQ(body.size(), 8u);
  // magic "PPG1" little-endian.
  EXPECT_EQ(body[0], 'P');
  EXPECT_EQ(body[1], 'P');
  EXPECT_EQ(body[2], 'G');
  EXPECT_EQ(body[3], '1');

  WireHello out;
  std::string err;
  ASSERT_TRUE(decode_hello(body.data(), body.size(), &out, &err)) << err;
  EXPECT_EQ(out.magic, kWireMagic);
  EXPECT_EQ(out.protocol, static_cast<std::uint32_t>(kWireVersion));
}

TEST(WireHandshake, HelloRejectsBadMagicProtocolLength) {
  WireHello h;
  auto body = encode_hello(h);
  WireHello out;
  std::string err;

  auto bad = body;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(decode_hello(bad.data(), bad.size(), &out, &err));
  EXPECT_NE(err.find("magic"), std::string::npos) << err;

  bad = body;
  bad[4] = 0;
  EXPECT_FALSE(decode_hello(bad.data(), bad.size(), &out, &err));
  EXPECT_NE(err.find("protocol"), std::string::npos) << err;

  EXPECT_FALSE(decode_hello(body.data(), body.size() - 1, &out, &err));
  EXPECT_FALSE(decode_hello(body.data(), 0, &out, &err));
  bad = body;
  bad.push_back(0);
  EXPECT_FALSE(decode_hello(bad.data(), bad.size(), &out, &err));
}

TEST(WireHandshake, HelloRejectsEveryOtherOffer) {
  // One version: a Hello from an older or a newer build fails the
  // handshake, and the error names the version it offered so a mixed
  // fleet says why it will not talk.
  for (const std::uint32_t offer : {1u, 3u, 0xFFFFFFFFu}) {
    WireHello h;
    h.protocol = offer;
    const auto body = encode_hello(h);
    WireHello out;
    std::string err;
    EXPECT_FALSE(decode_hello(body.data(), body.size(), &out, &err))
        << "offer " << offer;
    EXPECT_NE(err.find("protocol " + std::to_string(offer)),
              std::string::npos)
        << err;
  }
}

TEST(WireHandshake, HelloAckRejectsUnspeakableProtocol) {
  // The client side of the same rule: an ack naming any version but ours
  // comes from a server of another build, and the connection must die.
  WireHelloAck a;
  a.num_nodes = 7;
  a.classes = 3;
  WireHelloAck out;
  std::string err;

  for (const std::uint32_t p : {0u, 1u, 3u}) {
    a.protocol = p;
    const auto body = encode_hello_ack(a);
    EXPECT_FALSE(decode_hello_ack(body.data(), body.size(), &out, &err))
        << "ack protocol " << p;
    EXPECT_NE(err.find("protocol " + std::to_string(p)), std::string::npos)
        << err;
  }

  a.protocol = kWireVersion;
  auto body = encode_hello_ack(a);
  ASSERT_TRUE(decode_hello_ack(body.data(), body.size(), &out, &err)) << err;
  EXPECT_EQ(out.protocol, static_cast<std::uint32_t>(kWireVersion));

  body[21] = 1;  // reserved
  EXPECT_FALSE(decode_hello_ack(body.data(), body.size(), &out, &err));
}

TEST(WireHandshake, HelloAckRoundTrip) {
  WireHelloAck a;
  a.num_nodes = 1u << 20;
  a.classes = 16;
  a.precision = 1;  // serve::Precision::kInt8
  const auto body = encode_hello_ack(a);
  ASSERT_EQ(body.size(), 24u);

  WireHelloAck out;
  std::string err;
  ASSERT_TRUE(decode_hello_ack(body.data(), body.size(), &out, &err)) << err;
  EXPECT_EQ(out.num_nodes, a.num_nodes);
  EXPECT_EQ(out.classes, a.classes);
  EXPECT_EQ(out.precision, a.precision);
}

TEST(WireHandshake, HelloAckRejectsTruncation) {
  WireHelloAck a;
  a.num_nodes = 7;
  a.classes = 3;
  const auto body = encode_hello_ack(a);
  WireHelloAck out;
  std::string err;
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(decode_hello_ack(body.data(), len, &out, &err))
        << "accepted truncated HelloAck of " << len << " bytes";
  }
}

// --- Request ---------------------------------------------------------------

WireRequest reference_request() {
  // THE reference envelope of docs/wire-protocol.md — keep in sync with the
  // worked example there.
  WireRequest r;
  r.id = 0x0123456789ABCDEFull;
  r.priority = Priority::kLow;
  r.mode = ResultMode::kTopK;
  r.topk = 3;
  r.deadline_rel_us = 2500;
  r.tenant = 42;
  r.nodes = {7, 1000};
  return r;
}

TEST(WireRequest_, DocumentedByteLayoutV2) {
  const auto body = encode_request(reference_request());
  ASSERT_EQ(body.size(), 44u);

  const std::uint8_t expect[44] = {
      // [0..7]  id 0x0123456789ABCDEF, little-endian
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,
      // [8]    priority = kLow(1)   [9] mode = kTopK(1)
      0x01, 0x01,
      // [10..11] topk = 3
      0x03, 0x00,
      // [12..19] deadline_rel_us = 2500 (0x9C4)
      0xC4, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // [20..23] tenant = 42 (v2's one addition)
      0x2A, 0x00, 0x00, 0x00,
      // [24..27] node count = 2
      0x02, 0x00, 0x00, 0x00,
      // [28..35] node 7
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // [36..43] node 1000 (0x3E8)
      0xE8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  for (std::size_t i = 0; i < sizeof(expect); ++i) {
    EXPECT_EQ(body[i], expect[i]) << "body byte " << i;
  }

  // The frame header for this body, as documented: body_len 0x2C, type
  // kRequest (0x10), version 2, reserved zero.
  std::vector<std::uint8_t> frame;
  append_frame(frame, MsgType::kRequest, body.data(), body.size());
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + body.size());
  const std::uint8_t hdr[kFrameHeaderBytes] = {0x2C, 0x00, 0x00, 0x00,
                                               0x10, 0x02, 0x00, 0x00};
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    EXPECT_EQ(frame[i], hdr[i]) << "header byte " << i;
  }
}

TEST(WireRequest_, RoundTrip) {
  for (const std::int64_t deadline : {std::int64_t{-1}, std::int64_t{0},
                                      std::int64_t{2500}, kMaxDeadlineUs}) {
    WireRequest r;
    r.id = 42;
    r.priority = Priority::kHigh;
    r.mode = ResultMode::kFullLogits;
    r.deadline_rel_us = deadline;
    r.tenant = 0xDEADBEEFu;  // full u32 range must survive the trip
    r.nodes = {0, -3, (std::int64_t{1} << 40), 999999};
    const auto body = encode_request(r);

    WireRequest out;
    std::string err;
    ASSERT_TRUE(decode_request(body.data(), body.size(), &out, &err)) << err;
    EXPECT_EQ(out.id, r.id);
    EXPECT_EQ(out.priority, r.priority);
    EXPECT_EQ(out.mode, r.mode);
    EXPECT_EQ(out.deadline_rel_us, deadline);
    EXPECT_EQ(out.tenant, 0xDEADBEEFu);
    EXPECT_EQ(out.nodes, r.nodes);
  }

  const auto body = encode_request(reference_request());
  WireRequest out;
  std::string err;
  ASSERT_TRUE(decode_request(body.data(), body.size(), &out, &err)) << err;
  EXPECT_EQ(out.priority, Priority::kLow);
  EXPECT_EQ(out.mode, ResultMode::kTopK);
  EXPECT_EQ(out.topk, 3);
  EXPECT_EQ(out.tenant, 42u);
}

TEST(WireRequest_, VersionMismatchIsCaughtByLengthCheck) {
  // A body laid out without the tenant field (what a build from before
  // the field existed would send, should its frame header ever lie about
  // the version) is off by 4 bytes, and the count-vs-length check rejects
  // it instead of misparsing the nodes one field over.
  auto old_layout = encode_request(reference_request());
  old_layout.erase(old_layout.begin() + 20, old_layout.begin() + 24);
  WireRequest out;
  std::string err;
  EXPECT_FALSE(decode_request(old_layout.data(), old_layout.size(), &out,
                              &err));
  EXPECT_EQ(err, "ppgnn-wire: node count disagrees with body length");
}

TEST(WireRequest_, RejectsEveryTruncation) {
  const auto body = encode_request(reference_request());
  WireRequest out;
  std::string err;
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(decode_request(body.data(), len, &out, &err))
        << "accepted truncated Request of " << len << " bytes";
  }
}

TEST(WireRequest_, RejectsCorruptFields) {
  const auto body = encode_request(reference_request());
  WireRequest out;
  std::string err;

  auto bad = body;
  bad[8] = 2;  // priority past kLow
  EXPECT_FALSE(decode_request(bad.data(), bad.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: bad priority");

  bad = body;
  bad[9] = 2;  // mode past kTopK
  EXPECT_FALSE(decode_request(bad.data(), bad.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: bad result mode");

  bad = body;
  for (std::size_t i = 12; i < 20; ++i) bad[i] = 0xFF;  // deadline = -1 ...
  bad[12] = 0xFE;                                       // ... minus 1 = -2
  EXPECT_FALSE(decode_request(bad.data(), bad.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: bad deadline budget");

  WireRequest empty = reference_request();
  empty.nodes.clear();
  const auto ebody = encode_request(empty);
  EXPECT_FALSE(decode_request(ebody.data(), ebody.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: empty envelope");

  bad = body;
  bad[24] = 3;  // claims 3 nodes, payload holds 2 (count is at 24 in v2)
  EXPECT_FALSE(decode_request(bad.data(), bad.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: node count disagrees with body length");

  bad = body;
  bad.push_back(0);  // trailing garbage
  EXPECT_FALSE(decode_request(bad.data(), bad.size(), &out, &err));
}

// --- Deadline translation --------------------------------------------------

TEST(WireDeadline, TranslationEdges) {
  using clock = std::chrono::steady_clock;
  const clock::time_point now = clock::now();

  EXPECT_EQ(deadline_to_budget_us(clock::time_point::max(), now), -1);
  EXPECT_EQ(deadline_to_budget_us(now, now), 0);
  EXPECT_EQ(deadline_to_budget_us(now - std::chrono::seconds(5), now), 0);
  EXPECT_EQ(deadline_to_budget_us(now + std::chrono::microseconds(2500), now),
            2500);
  // A deadline past the clamp (but far from time_point::max(), which must
  // not overflow inside the subtraction) pins to kMaxDeadlineUs.
  EXPECT_EQ(deadline_to_budget_us(now + std::chrono::hours(24 * 400), now),
            kMaxDeadlineUs);

  EXPECT_EQ(budget_us_to_deadline(-1, now), clock::time_point::max());
  EXPECT_EQ(budget_us_to_deadline(-7, now), clock::time_point::max());
  EXPECT_EQ(budget_us_to_deadline(0, now), now);
  EXPECT_EQ(budget_us_to_deadline(2500, now),
            now + std::chrono::microseconds(2500));
  EXPECT_EQ(budget_us_to_deadline(kMaxDeadlineUs + 100, now),
            now + std::chrono::microseconds(kMaxDeadlineUs));
}

TEST(WireDeadline, RoundTripPreservesBudget) {
  using clock = std::chrono::steady_clock;
  const clock::time_point now = clock::now();
  const auto deadline = now + std::chrono::milliseconds(30);
  const std::int64_t budget = deadline_to_budget_us(deadline, now);
  EXPECT_EQ(budget, 30000);
  EXPECT_EQ(budget_us_to_deadline(budget, now), deadline);
  // No-deadline survives the trip too.
  EXPECT_EQ(budget_us_to_deadline(
                deadline_to_budget_us(clock::time_point::max(), now), now),
            clock::time_point::max());
}

// --- Response --------------------------------------------------------------

WireResponse reference_response() {
  // The response worked example of docs/wire-protocol.md.
  WireResponse r;
  r.id = 5;
  r.status = ServeStatus::kOk;
  r.mode = ResultMode::kFullLogits;
  r.timings.admission_wait_us = 1.5;
  r.timings.dispatch_delay_us = 0.0;
  r.timings.compute_us = 2.5;
  WirePart p;
  p.status = ServeStatus::kOk;
  p.logits = {1.0f};
  r.parts.push_back(p);
  return r;
}

TEST(WireResponse_, DocumentedByteLayout) {
  const auto body = encode_response(reference_response());
  ASSERT_EQ(body.size(), 53u);

  const std::uint8_t expect[53] = {
      // [0..7]  id = 5
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // [8]    status kOk   [9] mode kFullLogits   [10..11] reserved
      0x00, 0x00, 0x00, 0x00,
      // [12..15] part count = 1
      0x01, 0x00, 0x00, 0x00,
      // [16..23] admission_wait_us = 1.5 (IEEE-754 f64, LE)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,
      // [24..31] dispatch_delay_us = 0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // [32..39] compute_us = 2.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,
      // [40..43] error length = 0
      0x00, 0x00, 0x00, 0x00,
      // part 0: [44] status kOk, [45..48] value count = 1,
      // [49..52] logit 1.0f (IEEE-754 f32, LE)
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3F};
  for (std::size_t i = 0; i < sizeof(expect); ++i) {
    EXPECT_EQ(body[i], expect[i]) << "body byte " << i;
  }
}

TEST(WireResponse_, RoundTripFullLogitsAllStatuses) {
  WireResponse r;
  r.id = 0xDEADBEEF;
  r.mode = ResultMode::kFullLogits;
  r.error = "backend: simulated failure";
  r.timings.admission_wait_us = 12.25;
  r.timings.dispatch_delay_us = 3.5;
  r.timings.compute_us = 100.0;
  for (const ServeStatus s :
       {ServeStatus::kOk, ServeStatus::kDraining, ServeStatus::kShed,
        ServeStatus::kDeadlineExceeded, ServeStatus::kError,
        ServeStatus::kQuotaExceeded}) {
    WirePart p;
    p.status = s;
    if (s == ServeStatus::kOk) p.logits = {0.5f, -1.25f, 3.0f};
    if (s == ServeStatus::kDeadlineExceeded) p.logits = {9.0f};  // late answer
    r.parts.push_back(p);
    r.status = serve::worse_status(r.status, s);
  }

  const auto body = encode_response(r);
  WireResponse out;
  std::string err;
  ASSERT_TRUE(decode_response(body.data(), body.size(), &out, &err)) << err;
  EXPECT_EQ(out.id, r.id);
  EXPECT_EQ(out.status, r.status);
  EXPECT_EQ(out.mode, r.mode);
  EXPECT_EQ(out.error, r.error);
  EXPECT_DOUBLE_EQ(out.timings.admission_wait_us, 12.25);
  EXPECT_DOUBLE_EQ(out.timings.dispatch_delay_us, 3.5);
  EXPECT_DOUBLE_EQ(out.timings.compute_us, 100.0);
  ASSERT_EQ(out.parts.size(), r.parts.size());
  for (std::size_t i = 0; i < r.parts.size(); ++i) {
    EXPECT_EQ(out.parts[i].status, r.parts[i].status) << "part " << i;
    EXPECT_EQ(out.parts[i].logits, r.parts[i].logits) << "part " << i;
  }
}

TEST(WireResponse_, RoundTripTopK) {
  WireResponse r;
  r.id = 77;
  r.mode = ResultMode::kTopK;
  WirePart p;
  p.status = ServeStatus::kOk;
  p.topk = {{2, 0.9f}, {0, 0.05f}, {11, 0.01f}};
  r.parts.push_back(p);
  r.parts.push_back(WirePart{ServeStatus::kShed, {}, {}});  // empty part

  const auto body = encode_response(r);
  WireResponse out;
  std::string err;
  ASSERT_TRUE(decode_response(body.data(), body.size(), &out, &err)) << err;
  ASSERT_EQ(out.parts.size(), 2u);
  ASSERT_EQ(out.parts[0].topk.size(), 3u);
  EXPECT_EQ(out.parts[0].topk[0].cls, 2);
  EXPECT_FLOAT_EQ(out.parts[0].topk[0].score, 0.9f);
  EXPECT_EQ(out.parts[0].topk[2].cls, 11);
  EXPECT_EQ(out.parts[1].status, ServeStatus::kShed);
  EXPECT_TRUE(out.parts[1].topk.empty());
}

TEST(WireResponse_, RejectsEveryTruncation) {
  const auto body = encode_response(reference_response());
  WireResponse out;
  std::string err;
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(decode_response(body.data(), len, &out, &err))
        << "accepted truncated Response of " << len << " bytes";
  }
}

TEST(WireResponse_, RejectsCorruptFields) {
  const auto body = encode_response(reference_response());
  WireResponse out;
  std::string err;

  auto bad = body;
  bad[8] = 6;  // envelope status past kQuotaExceeded
  EXPECT_FALSE(decode_response(bad.data(), bad.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: bad status");

  bad = body;
  bad[9] = 2;  // mode past kTopK
  EXPECT_FALSE(decode_response(bad.data(), bad.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: bad result mode");

  bad = body;
  bad[11] = 1;  // reserved
  EXPECT_FALSE(decode_response(bad.data(), bad.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: nonzero reserved field");

  bad = body;
  for (std::size_t i = 12; i < 16; ++i) bad[i] = 0xFF;  // 4G parts claimed
  EXPECT_FALSE(decode_response(bad.data(), bad.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: part count past end of frame");

  bad = body;
  bad[40] = 0xFF;  // error_len far past the frame end
  EXPECT_FALSE(decode_response(bad.data(), bad.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: error text past end of frame");

  bad = body;
  bad[44] = 6;  // part status past kQuotaExceeded
  EXPECT_FALSE(decode_response(bad.data(), bad.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: bad part status");

  bad = body;
  bad[45] = 9;  // part claims 9 logits, payload holds 1
  EXPECT_FALSE(decode_response(bad.data(), bad.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: part values past end of frame");

  bad = body;
  bad.push_back(0);  // trailing garbage
  EXPECT_FALSE(decode_response(bad.data(), bad.size(), &out, &err));
  EXPECT_EQ(err, "ppgnn-wire: Response length mismatch");
}

// --- Single-byte corruption of whole frames --------------------------------

// Pops one frame off `stream` and decodes it by its type.  Returns false
// when the stream yields no decodable frame (reader failure, incomplete
// frame, or decoder rejection); otherwise re-encodes what was decoded into
// *reencoded.
bool decode_and_reencode(const std::vector<std::uint8_t>& stream,
                         std::vector<std::uint8_t>* reencoded) {
  FrameReader reader;
  reader.feed(stream.data(), stream.size());
  MsgType type;
  const std::uint8_t* body = nullptr;
  std::size_t len = 0;
  if (!reader.next_view(&type, &body, &len)) return false;
  std::string err;
  reencoded->clear();
  switch (type) {
    case MsgType::kHello: {
      WireHello h;
      if (!decode_hello(body, len, &h, &err)) return false;
      encode_hello_into(h, *reencoded);
      return true;
    }
    case MsgType::kHelloAck: {
      WireHelloAck a;
      if (!decode_hello_ack(body, len, &a, &err)) return false;
      encode_hello_ack_into(a, *reencoded);
      return true;
    }
    case MsgType::kRequest: {
      WireRequest r;
      if (!decode_request(body, len, &r, &err)) return false;
      encode_request_into(r, *reencoded);
      return true;
    }
    case MsgType::kResponse: {
      WireResponse r;
      if (!decode_response(body, len, &r, &err)) return false;
      encode_response_into(r, *reencoded);
      return true;
    }
  }
  return false;
}

TEST(WireCorruption, EveryByteValueOfTheReferenceFramesRejectsOrRoundTrips) {
  // With one layout there is one way to read each byte, so every
  // single-byte change of the documented frames must either be refused
  // (bad version, type, reserved byte, enum, or length) or be a different
  // but valid envelope — one whose re-encoding reproduces the corrupted
  // bytes exactly, i.e. nothing was skipped, defaulted or misparsed.
  std::vector<std::uint8_t> request_frame;
  encode_request_into(reference_request(), request_frame);
  std::vector<std::uint8_t> response_frame;
  encode_response_into(reference_response(), response_frame);

  std::vector<std::uint8_t> reencoded;
  for (const auto* frame : {&request_frame, &response_frame}) {
    ASSERT_TRUE(decode_and_reencode(*frame, &reencoded));
    ASSERT_EQ(reencoded, *frame);
    std::size_t accepted = 0, rejected = 0;
    std::vector<std::uint8_t> bad = *frame;
    for (std::size_t i = 0; i < frame->size(); ++i) {
      for (int v = 0; v < 256; ++v) {
        bad[i] = static_cast<std::uint8_t>(v);
        if (decode_and_reencode(bad, &reencoded)) {
          ++accepted;
          ASSERT_EQ(reencoded, bad)
              << "byte " << i << " = " << v << " decoded but re-encoded "
              << "differently";
        } else {
          ++rejected;
        }
      }
      bad[i] = (*frame)[i];
    }
    // Both outcomes occur: payload bytes take any value, and the header,
    // enums and counts refuse most.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
  }
}

// --- FrameReader -----------------------------------------------------------

TEST(FrameReaderTest, ReassemblesByteAtATime) {
  const auto body = encode_request(reference_request());
  std::vector<std::uint8_t> stream;
  append_frame(stream, MsgType::kRequest, body.data(), body.size());

  FrameReader reader;
  MsgType type;
  std::vector<std::uint8_t> got;
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    reader.feed(&stream[i], 1);
    EXPECT_FALSE(reader.next(&type, &got)) << "frame popped early at " << i;
  }
  reader.feed(&stream.back(), 1);
  ASSERT_TRUE(reader.next(&type, &got));
  EXPECT_EQ(type, MsgType::kRequest);
  EXPECT_EQ(got, body);
  EXPECT_FALSE(reader.next(&type, &got));
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_FALSE(reader.failed());
}

TEST(FrameReaderTest, PopsMultipleFramesFromOneFeed) {
  const auto hello = encode_hello(WireHello{});
  const auto req = encode_request(reference_request());
  const auto resp = encode_response(reference_response());
  std::vector<std::uint8_t> stream;
  append_frame(stream, MsgType::kHello, hello.data(), hello.size());
  append_frame(stream, MsgType::kRequest, req.data(), req.size());
  append_frame(stream, MsgType::kResponse, resp.data(), resp.size());

  FrameReader reader;
  reader.feed(stream.data(), stream.size());
  MsgType type;
  std::vector<std::uint8_t> body;
  ASSERT_TRUE(reader.next(&type, &body));
  EXPECT_EQ(type, MsgType::kHello);
  EXPECT_EQ(body, hello);
  ASSERT_TRUE(reader.next(&type, &body));
  EXPECT_EQ(type, MsgType::kRequest);
  EXPECT_EQ(body, req);
  ASSERT_TRUE(reader.next(&type, &body));
  EXPECT_EQ(type, MsgType::kResponse);
  EXPECT_EQ(body, resp);
  EXPECT_FALSE(reader.next(&type, &body));
}

TEST(FrameReaderTest, ProtocolViolationLatches) {
  const auto body = encode_hello(WireHello{});
  std::vector<std::uint8_t> stream;
  append_frame(stream, MsgType::kHello, body.data(), body.size());
  stream[5] = kWireVersion + 1;  // corrupt the version byte

  FrameReader reader;
  reader.feed(stream.data(), stream.size());
  MsgType type;
  std::vector<std::uint8_t> got;
  EXPECT_FALSE(reader.next(&type, &got));
  EXPECT_TRUE(reader.failed());
  EXPECT_FALSE(reader.error().empty());

  // A valid frame fed after the violation stays unread: the connection is
  // dead, there is no resynchronizing a corrupt byte stream.
  std::vector<std::uint8_t> fine;
  append_frame(fine, MsgType::kHello, body.data(), body.size());
  reader.feed(fine.data(), fine.size());
  EXPECT_FALSE(reader.next(&type, &got));
  EXPECT_TRUE(reader.failed());
}

}  // namespace
}  // namespace ppgnn::rpc
