#include "rpc/client.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <thread>

namespace kspdg {

namespace {

/// One non-blocking connect attempt. ENOENT/ECONNREFUSED mean the worker is
/// not (yet) listening — the caller decides whether to wait and retry.
Result<int> TryConnect(const std::string& path) {
  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket failed: ") + strerror(errno));
  }
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    close(fd);
    return nb;
  }
  sockaddr_un addr;
  memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    close(fd);
    return Status::InvalidArgument("socket path too long: " + path);
  }
  memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    return fd;
  }
  if (errno == EINPROGRESS || errno == EAGAIN) {
    // Unix-socket connects complete promptly once the listener exists; the
    // caller's poll-based deadline still bounds the wait via retry.
    return fd;
  }
  int err = errno;
  close(fd);
  return Status::Unavailable(std::string("connect to ") + path +
                             " failed: " + strerror(err));
}

}  // namespace

Status RpcClient::EnsureConnected(RpcDeadline deadline) {
  if (fd_ >= 0) return Status::OK();
  for (;;) {
    Result<int> fd = TryConnect(socket_path_);
    if (fd.ok()) {
      fd_ = fd.value();
      await_listener_ = false;
      return Status::OK();
    }
    // A refused connect after the worker once answered means it is gone
    // (crash): fail the attempt now rather than poll a dead socket.
    if (fd.status().code() != StatusCode::kUnavailable || !await_listener_) {
      return fd.status();
    }
    // Worker not listening yet (startup): wait briefly and retry inside the
    // attempt's deadline, so a booting worker is picked up without a
    // dedicated handshake.
    if (std::chrono::steady_clock::now() +
            std::chrono::milliseconds(10) >= deadline) {
      return fd.status();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void RpcClient::Disconnect() {
  MutexLock guard(mu_);
  DisconnectLocked();
  await_listener_ = true;
}

void RpcClient::DisconnectLocked() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status RpcClient::Call(MessageType request_type,
                       const std::string& request_payload,
                       MessageType expected_reply_type,
                       std::string* reply_payload,
                       int64_t deadline_ms_override) {
  MutexLock guard(mu_);
  calls_.fetch_add(1, std::memory_order_relaxed);
  const int64_t deadline_ms = deadline_ms_override > 0 ? deadline_ms_override
                                                       : options_.deadline_ms;
  Status last = Status::Unavailable("rpc call never attempted");
  for (uint32_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(
          options_.backoff_ms << (attempt - 1)));
    }
    RpcDeadline deadline = DeadlineAfterMillis(deadline_ms);
    last = EnsureConnected(deadline);
    if (!last.ok()) continue;
    last = WriteFrame(fd_, static_cast<uint8_t>(request_type),
                      request_payload, deadline);
    if (!last.ok()) {
      if (last.code() == StatusCode::kDeadlineExceeded) {
        deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      }
      DisconnectLocked();
      continue;
    }
    bytes_sent_.fetch_add(kFrameHeaderBytes + request_payload.size(),
                          std::memory_order_relaxed);
    uint8_t reply_type = 0;
    last = ReadFrame(fd_, &reply_type, reply_payload, deadline);
    if (!last.ok()) {
      if (last.code() == StatusCode::kDeadlineExceeded) {
        deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      }
      DisconnectLocked();
      continue;
    }
    bytes_received_.fetch_add(kFrameHeaderBytes + reply_payload->size(),
                              std::memory_order_relaxed);
    if (reply_type == static_cast<uint8_t>(MessageType::kErrorReply)) {
      // Application-level rejection: the worker is alive and the stream is
      // in sync, so surface the carried status without retrying.
      ErrorReply error;
      Status decoded = ErrorReply::Decode(*reply_payload, &error);
      if (!decoded.ok()) {
        DisconnectLocked();
        return decoded;
      }
      return error.ToStatus();
    }
    if (reply_type != static_cast<uint8_t>(expected_reply_type)) {
      // Stream out of sync (e.g. a stale reply after a timed-out call):
      // drop the connection so the next attempt starts clean.
      last = Status::Internal("worker sent reply type " +
                              std::to_string(reply_type) + ", expected " +
                              std::to_string(static_cast<uint8_t>(
                                  expected_reply_type)));
      DisconnectLocked();
      continue;
    }
    return Status::OK();
  }
  return last;
}

}  // namespace kspdg
