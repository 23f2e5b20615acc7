// Blocking RPC client for one shard-worker connection.
//
// One client owns one unix-domain-socket connection to one worker and
// serialises calls over it (the worker's loop is single-threaded anyway):
// an internal mutex guards the connection, so concurrent Calls queue up
// rather than interleave frames — callers that need a wider critical
// section (the remote service batches several calls per worker) still hold
// their own lock around the client. Every Call
// observes a per-attempt deadline and a bounded retry budget with
// exponential backoff: a slow or dead worker degrades to a clean
// kDeadlineExceeded / kUnavailable status, never a hang. Reconnection is
// automatic per attempt — which is safe because every protocol request is
// idempotent (partials and pings are reads; epoch prepare replays its
// stored reply; load-graph resets the worker). Only the first connect after
// construction or Disconnect() waits for the worker to start listening;
// any later refused connect means the worker died, and fails the attempt at
// once instead of stalling until the deadline.
#ifndef KSPDG_RPC_CLIENT_H_
#define KSPDG_RPC_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "core/mutex.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "rpc/frame.h"
#include "rpc/wire.h"

namespace kspdg {

struct RpcClientOptions {
  /// Per-attempt deadline for one request/reply round trip.
  int64_t deadline_ms = 2000;
  /// Retries after the first attempt (0 = fail on the first error).
  uint32_t max_retries = 2;
  /// Backoff before retry r is backoff_ms << (r - 1).
  int64_t backoff_ms = 20;
};

class RpcClient {
 public:
  RpcClient(std::string socket_path, RpcClientOptions options)
      : socket_path_(std::move(socket_path)), options_(options) {}

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;
  ~RpcClient() { Disconnect(); }

  /// One request/reply round trip with reconnect + retry + backoff. An
  /// ErrorReply frame decodes to its carried Status and is returned without
  /// retrying (the worker answered; it just said no). Transport failures
  /// (connect/read/write error, deadline expiry, unexpected reply type)
  /// retry up to the budget, then return the last failure.
  /// `deadline_ms_override` > 0 replaces the per-attempt deadline (traffic
  /// applies may legitimately outlast the query deadline).
  Status Call(MessageType request_type, const std::string& request_payload,
              MessageType expected_reply_type, std::string* reply_payload,
              int64_t deadline_ms_override = 0);

  /// Drops the connection; the next Call reconnects, waiting for a (new)
  /// worker to start listening on the socket path.
  void Disconnect();

  const std::string& socket_path() const { return socket_path_; }

  // Transport counters. All of them are strictly monotonic for the lifetime
  // of the client: they live on the client object, never on the connection,
  // so Disconnect/reconnect cycles and per-attempt reconnects cannot reset
  // them. The remote service exposes them as registry counter callbacks,
  // which assume monotonicity (a scrape that ever saw a counter go
  // backwards would break rate computations downstream).
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  uint64_t deadline_expired() const {
    return deadline_expired_.load(std::memory_order_relaxed);
  }
  /// Payload + frame-header bytes successfully written / read.
  uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }

 private:
  /// Connects (non-blocking) if not already connected. While
  /// `await_listener_` is set, waits for the socket to appear/accept until
  /// the deadline — covers worker startup.
  Status EnsureConnected(RpcDeadline deadline) REQUIRES(mu_);
  /// Disconnect body, for call sites already inside a Call round trip.
  void DisconnectLocked() REQUIRES(mu_);

  std::string socket_path_;
  RpcClientOptions options_;
  /// Serialises round trips and guards the connection. Strict leaf: held
  /// across socket I/O but never while acquiring another lock.
  Mutex mu_{"RpcClient::mu_"};
  int fd_ GUARDED_BY(mu_) = -1;
  /// Set at construction and by Disconnect(), cleared by the first
  /// successful connect.
  bool await_listener_ GUARDED_BY(mu_) = true;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
};

}  // namespace kspdg

#endif  // KSPDG_RPC_CLIENT_H_
