// RPC transport fast path (rpc/buffer.h): pooled zero-copy framing and
// writev frame coalescing.
//
// The contract under test is BYTE IDENTITY: the fast path may change how
// frames reach the socket (recycled buffers, vectored writes) but never
// what bytes arrive — docs/wire-protocol.md stays normative.  So the tests
// here are (a) a seeded fuzz that round-trips random envelopes through
// encode -> decode -> re-encode and demands identical bytes, plus
// rejection of every truncated prefix; (b) a stream-equivalence check that
// drain_writev over pooled frames emits exactly the bytes the per-frame
// path would; (c) the pool's steady-state guarantee — zero allocations per
// frame once the buffers in rotation fit the workload; and (d) the
// client's deadline-driven sweep still failing a timed-out call against a
// server that acks the handshake and then never answers.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "rpc/buffer.h"
#include "rpc/client.h"
#include "rpc/frame.h"
#include "rpc/inplace_function.h"
#include "rpc/wire.h"

namespace ppgnn::rpc {
namespace {

using Bytes = std::vector<std::uint8_t>;

// --- Seeded envelope fuzz --------------------------------------------------

WireRequest random_request(std::mt19937_64& rng) {
  WireRequest r;
  r.id = rng();
  r.priority = (rng() & 1) ? serve::Priority::kLow : serve::Priority::kHigh;
  r.mode = (rng() & 1) ? serve::ResultMode::kTopK
                       : serve::ResultMode::kFullLogits;
  r.topk = static_cast<std::uint16_t>(1 + rng() % 16);
  r.deadline_rel_us = (rng() & 1)
                          ? -1
                          : static_cast<std::int64_t>(rng() % 50'000'000);
  const std::size_t n = 1 + rng() % 64;
  r.nodes.resize(n);
  for (auto& node : r.nodes) {
    node = static_cast<std::int64_t>(rng() % 1'000'000);
  }
  return r;
}

WireResponse random_response(std::mt19937_64& rng) {
  WireResponse w;
  w.id = rng();
  w.status = static_cast<serve::ServeStatus>(rng() % 5);
  w.mode = (rng() & 1) ? serve::ResultMode::kTopK
                       : serve::ResultMode::kFullLogits;
  w.timings.admission_wait_us = static_cast<double>(rng() % 10'000);
  w.timings.dispatch_delay_us = static_cast<double>(rng() % 10'000);
  w.timings.compute_us = static_cast<double>(rng() % 10'000);
  if (w.status == serve::ServeStatus::kError) {
    w.error = "backend exploded #" + std::to_string(rng() % 100);
  }
  std::uniform_real_distribution<float> val(-8.f, 8.f);
  w.parts.resize(rng() % 8);
  for (auto& p : w.parts) {
    p.status = static_cast<serve::ServeStatus>(rng() % 5);
    const std::size_t k = rng() % 12;  // 0 = part carried no result
    if (w.mode == serve::ResultMode::kTopK) {
      p.topk.resize(k);
      for (auto& e : p.topk) {
        e.cls = static_cast<std::int32_t>(rng() % 1000);
        e.score = val(rng);
      }
    } else {
      p.logits.resize(k);
      for (auto& f : p.logits) f = val(rng);
    }
  }
  return w;
}

TEST(WireFuzz, RequestRoundTripIsByteIdentical) {
  std::mt19937_64 rng(0x5eed0001);
  for (int i = 0; i < 200; ++i) {
    const WireRequest r = random_request(rng);
    const Bytes body = encode_request(r);

    // The append-style frame encoder must produce byte-for-byte what
    // append_frame over the vector-returning encoder does — including when
    // appending after existing bytes.
    Bytes reference{0xAB, 0xCD};
    append_frame(reference, MsgType::kRequest, body.data(), body.size());
    Bytes framed{0xAB, 0xCD};
    encode_request_into(r, framed);
    ASSERT_EQ(reference, framed);

    WireRequest back;
    std::string err;
    ASSERT_TRUE(decode_request(body.data(), body.size(), &back, &err)) << err;
    EXPECT_EQ(encode_request(back), body);  // decode -> re-encode identity
  }
}

TEST(WireFuzz, ResponseRoundTripIsByteIdentical) {
  std::mt19937_64 rng(0x5eed0002);
  for (int i = 0; i < 200; ++i) {
    const WireResponse w = random_response(rng);
    const Bytes body = encode_response(w);

    Bytes reference;
    append_frame(reference, MsgType::kResponse, body.data(), body.size());
    Bytes framed;
    encode_response_into(w, framed);
    ASSERT_EQ(reference, framed);

    WireResponse back;
    std::string err;
    ASSERT_TRUE(decode_response(body.data(), body.size(), &back, &err))
        << err;
    EXPECT_EQ(encode_response(back), body);
  }
}

TEST(WireFuzz, HandshakeFramesAreByteIdentical) {
  const WireHello h;
  Bytes ref_h;
  {
    const Bytes body = encode_hello(h);
    append_frame(ref_h, MsgType::kHello, body.data(), body.size());
  }
  Bytes into_h;
  encode_hello_into(h, into_h);
  EXPECT_EQ(ref_h, into_h);

  WireHelloAck a;
  a.num_nodes = 123456;
  a.classes = 16;
  a.precision = 1;
  Bytes ref_a;
  {
    const Bytes body = encode_hello_ack(a);
    append_frame(ref_a, MsgType::kHelloAck, body.data(), body.size());
  }
  Bytes into_a;
  encode_hello_ack_into(a, into_a);
  EXPECT_EQ(ref_a, into_a);
}

TEST(WireFuzz, TruncatedBodiesRejectedAtEveryLength) {
  std::mt19937_64 rng(0x5eed0003);
  std::string err;
  for (int i = 0; i < 8; ++i) {
    const Bytes req = encode_request(random_request(rng));
    for (std::size_t len = 0; len < req.size(); ++len) {
      WireRequest out;
      EXPECT_FALSE(decode_request(req.data(), len, &out, &err))
          << "request prefix of " << len << "/" << req.size() << " decoded";
    }
    const Bytes resp = encode_response(random_response(rng));
    for (std::size_t len = 0; len < resp.size(); ++len) {
      WireResponse out;
      EXPECT_FALSE(decode_response(resp.data(), len, &out, &err))
          << "response prefix of " << len << "/" << resp.size() << " decoded";
    }
  }
}

TEST(WireFuzz, FrameReaderNeverYieldsFromAPartialFrame) {
  std::mt19937_64 rng(0x5eed0004);
  Bytes frame;
  encode_request_into(random_request(rng), frame);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    FrameReader reader;
    reader.feed(frame.data(), len);
    MsgType type;
    const std::uint8_t* body = nullptr;
    std::size_t body_len = 0;
    EXPECT_FALSE(reader.next_view(&type, &body, &body_len));
    EXPECT_FALSE(reader.failed());
  }
  // The whole frame pops, and the view aliases the reader's buffer.
  FrameReader reader;
  reader.feed(frame.data(), frame.size());
  MsgType type;
  const std::uint8_t* body = nullptr;
  std::size_t body_len = 0;
  ASSERT_TRUE(reader.next_view(&type, &body, &body_len));
  EXPECT_EQ(type, MsgType::kRequest);
  EXPECT_EQ(body_len, frame.size() - kFrameHeaderBytes);
  EXPECT_EQ(0, std::memcmp(body, frame.data() + kFrameHeaderBytes, body_len));
}

// --- Stream equivalence: drain_writev == per-frame bytes -------------------

TEST(FastPath, CoalescedWritevEmitsPerFramePathBytes) {
  std::mt19937_64 rng(0x5eed0005);

  // The reference stream: every frame appended flat, as the pre-pool
  // transport wrote them one send() at a time.
  Bytes reference;
  FramePool pool(8);
  RpcStats stats;
  FrameQueue q;
  for (int i = 0; i < 150; ++i) {
    if (rng() & 1) {
      const WireRequest r = random_request(rng);
      encode_request_into(r, reference);
      q.push_back(encode_pooled(pool, stats, [&r](Bytes& out) {
        encode_request_into(r, out);
      }));
    } else {
      const WireResponse w = random_response(rng);
      encode_response_into(w, reference);
      q.push_back(encode_pooled(pool, stats, [&w](Bytes& out) {
        encode_response_into(w, out);
      }));
    }
  }
  const std::size_t total_frames = q.size();

  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  ASSERT_TRUE(set_nonblocking(fds[0]));

  // Alternate draining and reading on one thread: EAGAIN from the full
  // socket buffer exercises the short-write/partial-frame path too.
  Bytes received;
  std::uint8_t buf[16384];
  while (!q.empty()) {
    ASSERT_TRUE(drain_writev(fds[0], q, pool, stats));
    ssize_t r;
    while ((r = ::recv(fds[1], buf, sizeof(buf), MSG_DONTWAIT)) > 0) {
      received.insert(received.end(), buf, buf + r);
    }
  }
  ::close(fds[0]);
  ssize_t r;
  while ((r = ::recv(fds[1], buf, sizeof(buf), 0)) > 0) {
    received.insert(received.end(), buf, buf + r);
  }
  ::close(fds[1]);

  ASSERT_EQ(reference.size(), received.size());
  EXPECT_EQ(reference, received);  // coalescing below framing: same bytes
  EXPECT_EQ(stats.frames_sent, total_frames);
  EXPECT_EQ(stats.bytes_sent, reference.size());
  EXPECT_GE(stats.writev_calls, 1u);
  // The whole point: strictly fewer syscalls than frames.
  EXPECT_LT(stats.writev_calls, total_frames);
  EXPECT_GT(stats.frames_per_writev(), 1.0);
}

// --- Pool steady state: zero allocations per frame -------------------------

TEST(FastPath, PoolReachesZeroAllocsPerFrameAtSteadyState) {
  FramePool pool(8);
  RpcStats stats;
  WireRequest r;
  r.id = 7;
  r.nodes.assign(32, 42);

  // Warm-up: first acquire allocates, and the encode may grow the fresh
  // buffer once.
  {
    auto f = encode_pooled(pool, stats, [&r](Bytes& out) {
      encode_request_into(r, out);
    });
    pool.release(std::move(f));
  }
  const std::uint64_t allocs_after_warmup = stats.buffer_allocs;

  for (int i = 0; i < 500; ++i) {
    auto f = encode_pooled(pool, stats, [&r](Bytes& out) {
      encode_request_into(r, out);
    });
    pool.release(std::move(f));
  }
  EXPECT_EQ(stats.buffer_allocs, allocs_after_warmup)
      << "steady-state encodes must not touch the heap";
  EXPECT_EQ(stats.pool_misses, 1u);
  EXPECT_EQ(stats.pool_hits, 500u);
  EXPECT_EQ(stats.frames_enqueued, 501u);
  EXPECT_LT(stats.allocs_per_frame(), 0.01);
  EXPECT_GT(stats.pool_hit_rate(), 0.99);
}

TEST(FastPath, PoolWatermarkAdaptsToDeepPipelines) {
  // A closed-loop client keeping hundreds of frames in flight must still
  // converge to zero allocs per frame: the free list follows the peak
  // outstanding count instead of dropping buffers at a fixed cap.
  constexpr std::size_t kDepth = 300;  // far beyond the 64-buffer floor
  FramePool pool;
  RpcStats stats;
  WireRequest r;
  r.id = 1;
  r.nodes.assign(4, 9);

  std::vector<std::unique_ptr<FrameBuffer>> in_flight;
  // One deep burst allocates the working set and raises the watermark...
  for (std::size_t i = 0; i < kDepth; ++i) {
    in_flight.push_back(encode_pooled(pool, stats, [&r](Bytes& out) {
      encode_request_into(r, out);
    }));
  }
  EXPECT_EQ(pool.peak_outstanding(), kDepth);
  for (auto& f : in_flight) pool.release(std::move(f));
  in_flight.clear();
  EXPECT_EQ(pool.free_count(), kDepth)
      << "the whole burst's buffers must be retained, not capped at the floor";
  const std::uint64_t allocs_after_burst = stats.buffer_allocs;

  // ...so every later burst up to that depth is allocation-free.
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < kDepth; ++i) {
      in_flight.push_back(encode_pooled(pool, stats, [&r](Bytes& out) {
        encode_request_into(r, out);
      }));
    }
    for (auto& f : in_flight) pool.release(std::move(f));
    in_flight.clear();
  }
  EXPECT_EQ(stats.buffer_allocs, allocs_after_burst)
      << "repeat bursts at the watermark depth must not touch the heap";
  EXPECT_EQ(stats.pool_hits, 5u * kDepth);
}

// --- InplaceFunction: the zero-alloc closure carrying every completion -----

TEST(FastPath, InplaceFunctionMoveAndDestroy) {
  // Every Done/FailHandler closure rides in an InplaceFunction; its capture
  // must move with the wrapper (never copy, never leak) and die exactly once.
  auto tracker = std::make_shared<int>(0);
  EXPECT_EQ(tracker.use_count(), 1);

  InplaceFunction<void(int), 64> f = [tracker](int delta) {
    *tracker += delta;
  };
  EXPECT_EQ(tracker.use_count(), 2);  // one copy captured, no hidden extras
  EXPECT_TRUE(static_cast<bool>(f));

  // Move transfers the capture: the source goes empty, the refcount holds.
  InplaceFunction<void(int), 64> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_TRUE(static_cast<bool>(g));
  EXPECT_EQ(tracker.use_count(), 2);

  g(5);
  g(2);
  EXPECT_EQ(*tracker, 7);

  // Assigning nullptr destroys the capture in place.
  g = nullptr;
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_EQ(tracker.use_count(), 1);

  // Scope-exit destruction also releases the capture exactly once.
  {
    InplaceFunction<void(int), 64> h = [tracker](int) {};
    EXPECT_EQ(tracker.use_count(), 2);
    // Move-assignment over an engaged wrapper destroys the old capture.
    auto extra = std::make_shared<int>(0);
    h = [extra](int) {};
    EXPECT_EQ(tracker.use_count(), 1);
    EXPECT_EQ(extra.use_count(), 2);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

// --- Deadline-driven sweep still fails a silent server ---------------------

// Acks the ppgnn-wire handshake, then swallows every request: the only way
// a call completes is the client's own timeout sweep.  With the fixed-tick
// sweep replaced by deadline-driven wakeups, this is the regression test
// that a pending deadline still wakes the I/O thread with no traffic and
// no further sweeps scheduled.
class MuteServer {
 public:
  explicit MuteServer(const std::string& address) {
    std::string err;
    listen_fd_ = listen_on(address, &err);
    EXPECT_GE(listen_fd_, 0) << err;
    thread_ = std::thread([this] { serve(); });
  }
  ~MuteServer() {
    stop_.store(true);
    thread_.join();
    ::close(listen_fd_);
  }

 private:
  void serve() {
    int cfd = -1;
    FrameReader reader;
    std::uint8_t buf[4096];
    while (!stop_.load()) {
      pollfd p{cfd < 0 ? listen_fd_ : cfd, POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      if (cfd < 0) {
        cfd = ::accept(listen_fd_, nullptr, nullptr);
        continue;
      }
      const ssize_t r = ::recv(cfd, buf, sizeof(buf), 0);
      if (r <= 0) break;
      reader.feed(buf, static_cast<std::size_t>(r));
      MsgType type;
      const std::uint8_t* body = nullptr;
      std::size_t body_len = 0;
      while (reader.next_view(&type, &body, &body_len)) {
        if (type != MsgType::kHello) continue;  // requests: dropped on purpose
        WireHelloAck ack;
        ack.num_nodes = 1;
        ack.classes = 1;
        Bytes frame;
        encode_hello_ack_into(ack, frame);
        [[maybe_unused]] const ssize_t w =
            ::send(cfd, frame.data(), frame.size(), MSG_NOSIGNAL);
      }
    }
    if (cfd >= 0) ::close(cfd);
  }

  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(FastPath, DeadlineSweepTimesOutAgainstMuteServer) {
  const std::string addr =
      "unix:/tmp/ppgnn-fastpath-mute-" + std::to_string(::getpid()) + ".sock";
  MuteServer server(addr);

  RpcClientConfig cfg;
  cfg.address = addr;
  RpcClient client(cfg);
  WireHelloAck ack;
  std::string err;
  ASSERT_TRUE(client.handshake(&ack, &err)) << err;

  WireRequest req;
  req.nodes = {0};
  std::promise<RpcClient::Result> done;
  client.call(req, std::chrono::milliseconds(100),
              [&done](RpcClient::Result& r) {
                done.set_value(std::move(r));
              });
  auto fut = done.get_future();
  // Generous bound: the sweep must fire at ~100ms; 10s means "never".
  ASSERT_EQ(std::future_status::ready,
            fut.wait_for(std::chrono::seconds(10)))
      << "timeout sweep never fired — the deadline-driven wakeup is broken";
  const RpcClient::Result res = fut.get();
  EXPECT_FALSE(res.transport_ok);
  EXPECT_NE(res.transport_error.find("timeout"), std::string::npos)
      << res.transport_error;
  client.shutdown();
}

}  // namespace
}  // namespace ppgnn::rpc
