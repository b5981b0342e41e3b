// ppgnn-wire: the binary codec that carries ServeRequest/ServeResponse
// envelopes across a process boundary.
//
// The serving API's envelope (serve/serve_api.h) was designed as a wire
// format — a correlation id, plain enums, a deadline, node ids, and a
// response of per-part rows — so the codec here is a direct field-for-field
// encoding of it, with exactly one translation: DEADLINES.  A ServeRequest
// deadline is an absolute steady_clock time point, which is meaningless in
// another process (steady_clock epochs are process-local), so the wire
// carries the REMAINING BUDGET in microseconds (i64, -1 = no deadline) and
// the receiver reconstitutes an absolute deadline against its own clock.
// Clock skew between hosts cancels out because both ends only ever look at
// relative time.
//
// Layout rules (normative copy in docs/wire-protocol.md — the spec and this
// header must agree byte for byte, and test_wire encodes a reference
// envelope against the documented offsets to keep them honest):
//   * every frame is an 8-byte header [u32 body_len][u8 msg_type]
//     [u8 version][u16 reserved] followed by body_len body bytes;
//   * all integers little-endian; floats/doubles as their IEEE-754 bit
//     pattern, little-endian;
//   * decoders reject unknown versions, unknown message types, bodies over
//     kMaxFrameBody, and any length field that disagrees with the actual
//     byte count — a corrupt frame kills the connection, never the process.
//
// ONE VERSION.  Every frame header, the Hello's `protocol` and the
// HelloAck's `protocol` carry exactly kWireVersion; a peer that says
// anything else is refused (at the handshake, or as a protocol violation
// that closes the connection afterwards).  Every peer is built from the
// same tree, so a fleet upgrades by rolling every process — mixed builds
// never talk.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve_api.h"

namespace ppgnn::rpc {

inline constexpr std::uint8_t kWireVersion = 2;
// Bytes "PPG1" on the wire (little-endian u32) — the handshake's sanity
// check that both ends speak ppgnn-wire at all.
inline constexpr std::uint32_t kWireMagic = 0x31475050u;
// Upper bound on one frame body: a 4096-node envelope of 4096-class fp32
// logits rows is ~64 MiB; 16 MiB covers every realistic deployment here
// while keeping a corrupt length field from allocating the moon.
inline constexpr std::size_t kMaxFrameBody = 16u << 20;
inline constexpr std::size_t kFrameHeaderBytes = 8;
// deadline_rel_us is clamped to one year: big enough to be "effectively
// none", small enough that now + budget can never overflow a time_point.
inline constexpr std::int64_t kMaxDeadlineUs =
    std::int64_t{365} * 24 * 3600 * 1000000;

enum class MsgType : std::uint8_t {
  kHello = 0x01,     // client -> server, opens every connection
  kHelloAck = 0x02,  // server -> client, completes the handshake
  kRequest = 0x10,
  kResponse = 0x11,
};

struct FrameHeader {
  std::uint32_t body_len = 0;
  MsgType type = MsgType::kHello;
};

// Writes the header at kWireVersion.
void encode_frame_header(const FrameHeader& h,
                         std::uint8_t out[kFrameHeaderBytes]);
// False (with *err set) on a version other than kWireVersion, an unknown
// type, or an oversized body.
bool decode_frame_header(const std::uint8_t in[kFrameHeaderBytes],
                         FrameHeader* out, std::string* err);

// Appends a complete frame (header + body) to `out`.
void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  const std::uint8_t* body, std::size_t body_len);

// Append-style `*_into` encoders (declared per section below): each
// appends one COMPLETE frame (header + body) to `out` without clearing it,
// producing byte-for-byte what append_frame over the matching
// vector-returning encoder would.  Encoding into a recycled FrameBuffer
// (rpc/buffer.h) whose capacity already fits the frame touches the heap
// zero times; the vector-returning body encoders stay as thin shims for
// tests and one-shot callers.

// --- Handshake ------------------------------------------------------------

// Both handshake bodies name the sender's wire version; the decoders
// refuse any version but kWireVersion with an error that names it.
struct WireHello {
  std::uint32_t magic = kWireMagic;
  std::uint32_t protocol = kWireVersion;
};

struct WireHelloAck {
  std::uint32_t magic = kWireMagic;
  std::uint32_t protocol = kWireVersion;
  std::uint64_t num_nodes = 0;  // rows this replica can answer for
  std::uint32_t classes = 0;    // logits row width
  std::uint8_t precision = 0;   // serve::Precision enum value
};

std::vector<std::uint8_t> encode_hello(const WireHello& h);
void encode_hello_into(const WireHello& h, std::vector<std::uint8_t>& out);
bool decode_hello(const std::uint8_t* body, std::size_t len, WireHello* out,
                  std::string* err);
std::vector<std::uint8_t> encode_hello_ack(const WireHelloAck& a);
void encode_hello_ack_into(const WireHelloAck& a,
                           std::vector<std::uint8_t>& out);
bool decode_hello_ack(const std::uint8_t* body, std::size_t len,
                      WireHelloAck* out, std::string* err);

// --- Request --------------------------------------------------------------

struct WireRequest {
  std::uint64_t id = 0;  // correlation id, echoed in the response
  serve::Priority priority = serve::Priority::kHigh;
  serve::ResultMode mode = serve::ResultMode::kFullLogits;
  std::uint16_t topk = 3;             // kTopK only
  std::int64_t deadline_rel_us = -1;  // remaining budget; -1 = none
  std::uint32_t tenant = 0;           // billed tenant (src/tenancy/)
  std::vector<std::int64_t> nodes;    // >= 1
};

std::vector<std::uint8_t> encode_request(const WireRequest& r);
void encode_request_into(const WireRequest& r, std::vector<std::uint8_t>& out);
bool decode_request(const std::uint8_t* body, std::size_t len,
                    WireRequest* out, std::string* err);

// Deadline translation (the one non-trivial conversion, see header note).
std::int64_t deadline_to_budget_us(std::chrono::steady_clock::time_point d,
                                   std::chrono::steady_clock::time_point now);
std::chrono::steady_clock::time_point budget_us_to_deadline(
    std::int64_t rel_us, std::chrono::steady_clock::time_point now);

// --- Response -------------------------------------------------------------

struct WirePart {
  serve::ServeStatus status = serve::ServeStatus::kOk;
  // kFullLogits: the logits row (empty when the part carried no result).
  std::vector<float> logits;
  // kTopK likewise.
  std::vector<serve::TopKEntry> topk;
};

struct WireResponse {
  std::uint64_t id = 0;
  serve::ServeStatus status = serve::ServeStatus::kOk;  // worst over parts
  serve::ResultMode mode = serve::ResultMode::kFullLogits;
  serve::StageTimings timings;  // max over parts, like the envelope's
  std::string error;            // kError only: the backend exception text
  std::vector<WirePart> parts;  // one per request node, same order
};

// The tenant never travels back — the client still holds it.
std::vector<std::uint8_t> encode_response(const WireResponse& r);
void encode_response_into(const WireResponse& r,
                          std::vector<std::uint8_t>& out);
bool decode_response(const std::uint8_t* body, std::size_t len,
                     WireResponse* out, std::string* err);

}  // namespace ppgnn::rpc
