// RpcClient: the front's end of one replica connection.
//
// One background I/O thread multiplexes everything over a single stream
// socket: call() serializes the request into an outbox and returns
// immediately; the thread writes when the socket can take bytes, reads
// whatever arrives, matches responses to pending calls by correlation id,
// and invokes each call's completion exactly once — with the response, or
// with a transport failure (connection lost, per-request timeout, client
// shut down).  Exactly-once completion is the property the fleet's
// crash-recovery leans on: a completion that never fires would strand an
// envelope part forever, one that fires twice would double-finish it.
//
// Failure model:
//  * A lost connection fails every in-flight call immediately (the server
//    may or may not have processed them — the caller re-routes, which can
//    recompute work but never duplicates a response).
//  * The client then retries the connection with bounded exponential
//    backoff (backoff_initial doubling to backoff_max, at most
//    max_reconnect_attempts).  While disconnected, new calls fail fast so
//    the fleet re-routes instead of queueing against a corpse.  After the
//    last attempt the client is permanently dead.
//  * A per-request timeout (a hang detector, not an SLO — deadlines travel
//    inside the request) fails just that call; a late response to a
//    forgotten id is dropped on the floor.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rpc/buffer.h"
#include "rpc/frame.h"
#include "rpc/inplace_function.h"
#include "rpc/wire.h"

namespace ppgnn::rpc {

struct RpcClientConfig {
  std::string address;  // unix:/path or tcp:host:port
  // Whole budget for connect + Hello/HelloAck on handshake(): a replica
  // process needs time to load its checkpoint before it listens.
  std::chrono::milliseconds handshake_timeout{10000};
  // One TCP/Unix connect attempt inside that budget (and per reconnect).
  std::chrono::milliseconds connect_timeout{2000};
  // Default per-call timeout when call() is given none.
  std::chrono::milliseconds request_timeout{30000};
  std::chrono::milliseconds backoff_initial{10};
  std::chrono::milliseconds backoff_max{500};
  int max_reconnect_attempts = 5;
  // FLOOR on encode buffers kept warm on the frame pool's free list
  // (rpc/buffer.h).  The pool adapts upward to the high-water in-flight
  // count on its own, so steady-state transport memory tracks what the
  // workload actually keeps in flight; this knob only guarantees a warm
  // minimum before the first burst.
  std::size_t frame_pool_buffers = FramePool::kDefaultMaxFree;
};

class RpcClient {
 public:
  struct Result {
    bool transport_ok = false;
    WireResponse response;        // valid when transport_ok
    std::string transport_error;  // set when !transport_ok
  };
  // Invoked exactly once per call(), on the I/O thread (or inline from
  // call() when the transport is already down).  Keep it lean; it runs in
  // the response path of every other in-flight call.  The Result is
  // BORROWED — it may be the I/O thread's reusable decode scratch, valid
  // only for the duration of the callback; move out whatever must outlive
  // it (moved-from vectors simply re-grow on the next decode).  The
  // capture lives inline in the wrapper (inplace_function.h) — one wire
  // call costs zero closure allocations, and a capture that outgrows the
  // budget is a compile error.
  using Done = InplaceFunction<void(Result&), 192>;

  explicit RpcClient(RpcClientConfig cfg);
  ~RpcClient();  // shutdown()

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // Connects, exchanges Hello/HelloAck, starts the I/O thread.  Call once,
  // before the first call(); false (with *err) leaves the client dead.
  // Retries the connect inside handshake_timeout, so spawning the server
  // process and handshaking can race.
  bool handshake(WireHelloAck* ack, std::string* err);

  // Enqueues one request.  `req.id` is overwritten with the client's own
  // correlation id.  timeout <= 0 means config().request_timeout.  The
  // request is fully serialized before call() returns and never retained,
  // so the caller may reuse `req` (capacity intact) for the next call —
  // the alloc-free path for a per-thread request scratch.
  void call(WireRequest& req, std::chrono::milliseconds timeout, Done done);

  bool alive() const;          // connected and not shut down
  std::size_t inflight() const;
  const RpcClientConfig& config() const { return cfg_; }
  // Snapshot of the transport counters (frames per writev, pool hit rate,
  // allocations per frame — rpc/buffer.h).  Thread-safe.
  RpcStats stats() const;

  // Fails all pending calls ("client shutdown"), stops the I/O thread.
  // Idempotent.
  void shutdown();

 private:
  // One in-flight call, living in a reusable slab slot (see slots_).  A
  // zero id marks the slot free; the full wire id (sequence | slot) guards
  // against a late response landing on a recycled slot.
  struct Pending {
    Done done;
    std::chrono::steady_clock::time_point expires;
    std::uint64_t id = 0;
  };

  // Wire ids encode their slab slot in the low bits, so matching a
  // response to its call is one bounds-check + compare — no map, no
  // per-call node allocation, no tree walk at 2k in flight.
  static constexpr std::uint32_t kSlotBits = 20;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;

  void io_loop();
  // Closes the socket, fails all pending into `completions`, arms the
  // reconnect timer (or marks the client dead).  Caller holds mu_.
  void drop_connection_locked(
      const std::string& why,
      std::vector<std::pair<Done, Result>>* completions);
  bool try_reconnect();  // I/O thread only, mu_ NOT held
  void wake();

  RpcClientConfig cfg_;
  mutable std::mutex mu_;
  // Slab of in-flight calls: slots_[id & kSlotMask] is the call with that
  // wire id.  Freed slots queue on free_slots_ for reuse; the slab only
  // grows to the high-water in-flight count and never shrinks.
  std::vector<Pending> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t pending_count_ = 0;
  // Earliest expiry across in-flight calls (time_point::max() when none,
  // or a stale-early lower bound after the nearest call completed — the
  // sweep recomputes it).  The I/O loop sleeps exactly until this instant
  // instead of ticking on a fixed interval.
  std::chrono::steady_clock::time_point next_expiry_ =
      std::chrono::steady_clock::time_point::max();
  // Outbox: one pooled buffer per encoded frame, drained with vectored
  // writes (drain_writev) — never re-copied into a flat buffer.
  FrameQueue outbox_;
  FramePool pool_;
  RpcStats stats_;
  std::uint64_t next_seq_ = 1;  // high bits of the wire id, never reused
  int fd_ = -1;
  bool connected_ = false;
  bool dead_ = false;      // reconnect attempts exhausted or handshake failed
  bool stopping_ = false;
  int reconnect_attempts_ = 0;
  std::chrono::milliseconds backoff_{0};
  std::chrono::steady_clock::time_point next_reconnect_{};
  int wake_pipe_[2] = {-1, -1};
  std::thread io_;
  FrameReader reader_;
};

}  // namespace ppgnn::rpc
