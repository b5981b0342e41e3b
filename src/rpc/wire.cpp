#include "rpc/wire.h"

#include <cstring>

namespace ppgnn::rpc {

namespace {

// Explicit little-endian put/get: the codec must produce identical bytes on
// any host, and memcpy-of-struct would inherit the host's padding and
// endianness instead of the documented layout.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(out, bits);
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

// Bounds-checked reader over one frame body.  Decoders drain it field by
// field; any read past the end (or trailing bytes left over) marks the
// frame corrupt.
struct Reader {
  const std::uint8_t* p;
  std::size_t left;
  bool ok = true;

  bool take(void* dst, std::size_t n) {
    if (!ok || n > left) {
      ok = false;
      return false;
    }
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  std::uint8_t u8() {
    std::uint8_t v = 0;
    take(&v, 1);
    return v;
  }
  std::uint16_t u16() {
    std::uint8_t b[2] = {0, 0};
    take(b, 2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }
  std::uint32_t u32() {
    std::uint8_t b[4] = {0, 0, 0, 0};
    take(b, 4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  std::uint64_t u64() {
    std::uint8_t b[8] = {0};
    take(b, 8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
};

// Reserved bytes are written as zero and must read back as zero: a build
// that gave them meaning is another version, refused rather than misread.
constexpr const char* kNonzeroReserved = "ppgnn-wire: nonzero reserved field";

bool fail(std::string* err, const char* what) {
  if (err) *err = what;
  return false;
}

// Version refusals name both versions, so a mixed-build fleet says why it
// will not talk instead of just dropping connections.
bool fail_version(std::string* err, const char* what, std::uint32_t got) {
  if (err) {
    *err = std::string("ppgnn-wire: unsupported ") + what + " " +
           std::to_string(got) + " (this build speaks only " +
           std::to_string(kWireVersion) + ")";
  }
  return false;
}

bool valid_status(std::uint8_t s) {
  return s <= static_cast<std::uint8_t>(serve::ServeStatus::kQuotaExceeded);
}

// --- Body encoders ---------------------------------------------------------
//
// Shared by the vector-returning shims (body only) and the frame-appending
// *_into encoders (placeholder header, body, patch) so the byte layout has
// exactly one implementation per message.

void hello_body_into(const WireHello& h, std::vector<std::uint8_t>& out) {
  put_u32(out, h.magic);
  put_u32(out, h.protocol);
}

void hello_ack_body_into(const WireHelloAck& a,
                         std::vector<std::uint8_t>& out) {
  put_u32(out, a.magic);
  put_u32(out, a.protocol);
  put_u64(out, a.num_nodes);
  put_u32(out, a.classes);
  out.push_back(a.precision);
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);  // reserved
}

void request_body_into(const WireRequest& r, std::vector<std::uint8_t>& out) {
  put_u64(out, r.id);
  out.push_back(static_cast<std::uint8_t>(r.priority));
  out.push_back(static_cast<std::uint8_t>(r.mode));
  put_u16(out, r.topk);
  put_i64(out, r.deadline_rel_us);
  put_u32(out, r.tenant);
  put_u32(out, static_cast<std::uint32_t>(r.nodes.size()));
  for (const std::int64_t n : r.nodes) put_i64(out, n);
}

void response_body_into(const WireResponse& r,
                        std::vector<std::uint8_t>& out) {
  put_u64(out, r.id);
  out.push_back(static_cast<std::uint8_t>(r.status));
  out.push_back(static_cast<std::uint8_t>(r.mode));
  put_u16(out, 0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(r.parts.size()));
  put_f64(out, r.timings.admission_wait_us);
  put_f64(out, r.timings.dispatch_delay_us);
  put_f64(out, r.timings.compute_us);
  put_u32(out, static_cast<std::uint32_t>(r.error.size()));
  out.insert(out.end(), r.error.begin(), r.error.end());
  for (const WirePart& p : r.parts) {
    out.push_back(static_cast<std::uint8_t>(p.status));
    if (r.mode == serve::ResultMode::kTopK) {
      put_u32(out, static_cast<std::uint32_t>(p.topk.size()));
      for (const serve::TopKEntry& e : p.topk) {
        put_u32(out, static_cast<std::uint32_t>(e.cls));
        put_f32(out, e.score);
      }
    } else {
      put_u32(out, static_cast<std::uint32_t>(p.logits.size()));
      for (const float v : p.logits) put_f32(out, v);
    }
  }
}

// Frame-appending skeleton: write a placeholder header, append the body,
// then patch body_len once it is known — one pass, no temporary vector.
template <typename BodyFn>
void frame_into(MsgType type, std::vector<std::uint8_t>& out, BodyFn&& body) {
  const std::size_t hdr = out.size();
  out.resize(hdr + kFrameHeaderBytes, 0);
  body(out);
  const std::size_t body_len = out.size() - hdr - kFrameHeaderBytes;
  for (int i = 0; i < 4; ++i) {
    out[hdr + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(body_len >> (8 * i));
  }
  out[hdr + 4] = static_cast<std::uint8_t>(type);
  out[hdr + 5] = kWireVersion;
  // bytes 6..7 (reserved) stay zero from the resize
}

}  // namespace

void encode_frame_header(const FrameHeader& h,
                         std::uint8_t out[kFrameHeaderBytes]) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(h.body_len >> (8 * i));
  }
  out[4] = static_cast<std::uint8_t>(h.type);
  out[5] = kWireVersion;
  out[6] = 0;
  out[7] = 0;  // reserved
}

bool decode_frame_header(const std::uint8_t in[kFrameHeaderBytes],
                         FrameHeader* out, std::string* err) {
  Reader r{in, kFrameHeaderBytes};
  out->body_len = r.u32();
  const std::uint8_t type = r.u8();
  const std::uint8_t version = r.u8();
  const std::uint16_t reserved = r.u16();
  if (version != kWireVersion) {
    return fail_version(err, "frame version", version);
  }
  if (reserved != 0) return fail(err, kNonzeroReserved);
  switch (type) {
    case static_cast<std::uint8_t>(MsgType::kHello):
    case static_cast<std::uint8_t>(MsgType::kHelloAck):
    case static_cast<std::uint8_t>(MsgType::kRequest):
    case static_cast<std::uint8_t>(MsgType::kResponse):
      out->type = static_cast<MsgType>(type);
      break;
    default:
      return fail(err, "ppgnn-wire: unknown message type");
  }
  if (out->body_len > kMaxFrameBody) {
    return fail(err, "ppgnn-wire: frame body over size cap");
  }
  return true;
}

void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  const std::uint8_t* body, std::size_t body_len) {
  FrameHeader h;
  h.body_len = static_cast<std::uint32_t>(body_len);
  h.type = type;
  std::uint8_t hdr[kFrameHeaderBytes];
  encode_frame_header(h, hdr);
  out.insert(out.end(), hdr, hdr + kFrameHeaderBytes);
  out.insert(out.end(), body, body + body_len);
}

std::vector<std::uint8_t> encode_hello(const WireHello& h) {
  std::vector<std::uint8_t> out;
  out.reserve(8);
  hello_body_into(h, out);
  return out;
}

void encode_hello_into(const WireHello& h, std::vector<std::uint8_t>& out) {
  frame_into(MsgType::kHello, out,
             [&h](std::vector<std::uint8_t>& o) { hello_body_into(h, o); });
}

bool decode_hello(const std::uint8_t* body, std::size_t len, WireHello* out,
                  std::string* err) {
  Reader r{body, len};
  out->magic = r.u32();
  out->protocol = r.u32();
  if (!r.ok || r.left != 0) return fail(err, "ppgnn-wire: bad Hello length");
  if (out->magic != kWireMagic) return fail(err, "ppgnn-wire: bad magic");
  if (out->protocol != kWireVersion) {
    return fail_version(err, "protocol", out->protocol);
  }
  return true;
}

std::vector<std::uint8_t> encode_hello_ack(const WireHelloAck& a) {
  std::vector<std::uint8_t> out;
  out.reserve(24);
  hello_ack_body_into(a, out);
  return out;
}

void encode_hello_ack_into(const WireHelloAck& a,
                           std::vector<std::uint8_t>& out) {
  frame_into(MsgType::kHelloAck, out,
             [&a](std::vector<std::uint8_t>& o) {
               hello_ack_body_into(a, o);
             });
}

bool decode_hello_ack(const std::uint8_t* body, std::size_t len,
                      WireHelloAck* out, std::string* err) {
  Reader r{body, len};
  out->magic = r.u32();
  out->protocol = r.u32();
  out->num_nodes = r.u64();
  out->classes = r.u32();
  out->precision = r.u8();
  const std::uint32_t reserved = r.u8() | r.u8() | r.u8();
  if (!r.ok || r.left != 0) {
    return fail(err, "ppgnn-wire: bad HelloAck length");
  }
  if (reserved != 0) return fail(err, kNonzeroReserved);
  if (out->magic != kWireMagic) return fail(err, "ppgnn-wire: bad magic");
  if (out->protocol != kWireVersion) {
    return fail_version(err, "protocol", out->protocol);
  }
  return true;
}

std::vector<std::uint8_t> encode_request(const WireRequest& r) {
  std::vector<std::uint8_t> out;
  out.reserve(28 + r.nodes.size() * 8);
  request_body_into(r, out);
  return out;
}

void encode_request_into(const WireRequest& r, std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + kFrameHeaderBytes + 28 + r.nodes.size() * 8);
  frame_into(MsgType::kRequest, out,
             [&r](std::vector<std::uint8_t>& o) { request_body_into(r, o); });
}

bool decode_request(const std::uint8_t* body, std::size_t len,
                    WireRequest* out, std::string* err) {
  Reader r{body, len};
  out->id = r.u64();
  const std::uint8_t pri = r.u8();
  const std::uint8_t mode = r.u8();
  out->topk = r.u16();
  out->deadline_rel_us = r.i64();
  out->tenant = r.u32();
  const std::uint32_t count = r.u32();
  if (!r.ok) return fail(err, "ppgnn-wire: truncated Request");
  if (pri > static_cast<std::uint8_t>(serve::Priority::kLow)) {
    return fail(err, "ppgnn-wire: bad priority");
  }
  if (mode > static_cast<std::uint8_t>(serve::ResultMode::kTopK)) {
    return fail(err, "ppgnn-wire: bad result mode");
  }
  if (out->deadline_rel_us < -1) {
    return fail(err, "ppgnn-wire: bad deadline budget");
  }
  if (count == 0) return fail(err, "ppgnn-wire: empty envelope");
  if (r.left != static_cast<std::size_t>(count) * 8) {
    return fail(err, "ppgnn-wire: node count disagrees with body length");
  }
  out->priority = static_cast<serve::Priority>(pri);
  out->mode = static_cast<serve::ResultMode>(mode);
  out->nodes.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) out->nodes[i] = r.i64();
  return r.ok;
}

std::int64_t deadline_to_budget_us(std::chrono::steady_clock::time_point d,
                                   std::chrono::steady_clock::time_point now) {
  if (d == std::chrono::steady_clock::time_point::max()) return -1;
  if (d <= now) return 0;  // already blown: ship a zero budget, not a throw
  // Clamp BEFORE converting to microseconds: (max() - now) overflows a
  // microsecond count long before it overflows the native duration.
  const auto budget = d - now;
  const auto cap = std::chrono::microseconds(kMaxDeadlineUs);
  if (budget >= cap) return kMaxDeadlineUs;
  return std::chrono::duration_cast<std::chrono::microseconds>(budget)
      .count();
}

std::chrono::steady_clock::time_point budget_us_to_deadline(
    std::int64_t rel_us, std::chrono::steady_clock::time_point now) {
  if (rel_us < 0) return std::chrono::steady_clock::time_point::max();
  if (rel_us > kMaxDeadlineUs) rel_us = kMaxDeadlineUs;
  return now + std::chrono::microseconds(rel_us);
}

std::vector<std::uint8_t> encode_response(const WireResponse& r) {
  std::vector<std::uint8_t> out;
  out.reserve(64 + r.error.size());
  response_body_into(r, out);
  return out;
}

void encode_response_into(const WireResponse& r,
                          std::vector<std::uint8_t>& out) {
  frame_into(MsgType::kResponse, out,
             [&r](std::vector<std::uint8_t>& o) { response_body_into(r, o); });
}

bool decode_response(const std::uint8_t* body, std::size_t len,
                     WireResponse* out, std::string* err) {
  Reader r{body, len};
  out->id = r.u64();
  const std::uint8_t status = r.u8();
  const std::uint8_t mode = r.u8();
  const std::uint16_t reserved = r.u16();
  const std::uint32_t part_count = r.u32();
  out->timings.admission_wait_us = r.f64();
  out->timings.dispatch_delay_us = r.f64();
  out->timings.compute_us = r.f64();
  const std::uint32_t error_len = r.u32();
  if (!r.ok) return fail(err, "ppgnn-wire: truncated Response");
  if (reserved != 0) return fail(err, kNonzeroReserved);
  if (!valid_status(status)) return fail(err, "ppgnn-wire: bad status");
  if (mode > static_cast<std::uint8_t>(serve::ResultMode::kTopK)) {
    return fail(err, "ppgnn-wire: bad result mode");
  }
  if (error_len > r.left) {
    return fail(err, "ppgnn-wire: error text past end of frame");
  }
  out->status = static_cast<serve::ServeStatus>(status);
  out->mode = static_cast<serve::ResultMode>(mode);
  out->error.assign(reinterpret_cast<const char*>(r.p), error_len);
  r.p += error_len;
  r.left -= error_len;
  // Every part is at least its status byte and value count: a corrupt
  // part_count must be refused before it sizes the parts array.
  if (part_count > r.left / 5) {
    return fail(err, "ppgnn-wire: part count past end of frame");
  }
  // Decode INTO the caller's vectors (resize, not clear+push_back): a
  // long-lived scratch WireResponse keeps its parts array and each part's
  // logits/topk capacity across frames, so steady-state decode allocates
  // only what the completion actually moves out.
  out->parts.resize(part_count);
  for (std::uint32_t i = 0; i < part_count; ++i) {
    WirePart& p = out->parts[i];
    const std::uint8_t ps = r.u8();
    const std::uint32_t count = r.u32();
    if (!r.ok) return fail(err, "ppgnn-wire: truncated Response part");
    if (!valid_status(ps)) return fail(err, "ppgnn-wire: bad part status");
    p.status = static_cast<serve::ServeStatus>(ps);
    const std::size_t value_bytes =
        static_cast<std::size_t>(count) *
        (out->mode == serve::ResultMode::kTopK ? 8 : 4);
    if (value_bytes > r.left) {
      return fail(err, "ppgnn-wire: part values past end of frame");
    }
    if (out->mode == serve::ResultMode::kTopK) {
      p.logits.clear();
      p.topk.resize(count);
      for (std::uint32_t j = 0; j < count; ++j) {
        p.topk[j].cls = static_cast<std::int32_t>(r.u32());
        p.topk[j].score = r.f32();
      }
    } else {
      p.topk.clear();
      p.logits.resize(count);
      for (std::uint32_t j = 0; j < count; ++j) p.logits[j] = r.f32();
    }
  }
  if (!r.ok || r.left != 0) {
    return fail(err, "ppgnn-wire: Response length mismatch");
  }
  return true;
}

}  // namespace ppgnn::rpc
