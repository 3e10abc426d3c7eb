// NetServer: the TCP front door in front of ModelRegistry (the
// vsq_serve_net tool is a thin shell around this class; tests and the
// soak harness embed it in-process on an ephemeral port). Thread-per-
// connection with a hard connection cap: up to `max_connections` peers
// are served concurrently, the next one is answered with a single kBusy
// frame and closed — connection admission is load shedding too, never an
// unbounded accept queue.
//
// Per-request flow: read one request frame (deadline-bounded at every
// read, so a stalled or half-written frame costs one connection slot for
// a bounded time, never a wedged thread), route it through the registry
// with the request's priority lane, map the outcome onto a wire Status:
//
//   queue full (QueueFullError)  -> kShed         (request never ran)
//   model not loaded             -> kUnknownModel
//   wrong shape / bad frame      -> kBadRequest
//   session shutting down        -> kUnavailable
//   batch execution threw        -> kError
//
// The batcher promise always resolves (accepted requests execute even if
// the client has vanished), so a mid-request disconnect costs the server
// nothing but the dropped write.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "serve/registry.h"

namespace vsq::net {

struct NetServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;               // 0 = pick an ephemeral port (see NetServer::port)
  int max_connections = 64;   // concurrent peers; the next gets kBusy + close
  // Largest accepted request body. Bounds per-connection memory: a peer
  // can make the server buffer at most this much. 4 MiB ~= a 1M-float row.
  std::uint32_t max_body_bytes = 4u << 20;
  int idle_timeout_ms = 10000;  // wait for a request's first byte, then close
  int frame_timeout_ms = 5000;  // finish a started frame (slow-trickle bound)
  int write_timeout_ms = 5000;  // drain a response to a slow reader
};

class NetServer {
 public:
  // Binds + listens + starts the accept thread; throws std::runtime_error
  // when the address cannot be bound.
  NetServer(ModelRegistry& registry, NetServerConfig cfg = {});
  ~NetServer();  // stop()

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Stop accepting, wake every connection, join all threads. Idempotent.
  void stop();

  int port() const { return port_; }
  const std::string& host() const { return cfg_.host; }

  // Lifetime counters (monotonic since construction).
  std::uint64_t connections_accepted() const { return accepted_.load(); }
  // Read off the per-status ledger (frames_by_status below).
  std::uint64_t busy_rejects() const { return frames_by_status(Status::kBusy); }
  std::uint64_t frames_ok() const { return frames_by_status(Status::kOk); }
  std::uint64_t frames_shed() const { return frames_by_status(Status::kShed); }
  // Non-ok, non-shed responses to request frames: unknown model, bad
  // request, error, unavailable (connection-cap kBusy frames excluded).
  std::uint64_t frames_rejected() const;
  // Connections dropped for wire-level violations: bad magic, oversized
  // body, undecodable or half-delivered frames, stalled peers.
  std::uint64_t protocol_errors() const { return protocol_errors_.load(); }
  std::uint64_t http_requests() const { return http_requests_.load(); }
  // Exact per-status response ledger: frames_by_status(s) counts every
  // response frame sent with status s (kOk..kBusy; busy frames sent at
  // the connection cap included). Tests assert this against the client's
  // own tally — the taxonomy must account for every frame, no "other".
  std::uint64_t frames_by_status(Status s) const {
    return frames_by_status_[static_cast<std::size_t>(s)].load();
  }
  std::size_t active_connections() const;

  // The /stats payload: server counters + per-model ServeStatsSnapshots.
  std::string stats_json() const;

 private:
  struct Conn {
    int fd = -1;
    std::thread th;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_conn(Conn* conn);
  // Frame loop for one connection; may throw (failpoints) — serve_conn
  // catches so a thread never escapes an exception.
  void serve_conn_loop(int fd);
  bool serve_http(int fd, const std::array<char, 4>& first);
  // Decode + route + execute one request; never throws — every failure
  // mode is a Status on the response frame.
  ResponseFrame handle_request(const std::vector<std::uint8_t>& body);
  void reap(bool all);

  ModelRegistry& registry_;
  NetServerConfig cfg_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  mutable std::mutex conns_mu_;
  std::list<Conn> conns_;  // list: Conn addresses stay stable for the threads

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> http_requests_{0};
  // Index = wire Status value (kOk=0 .. kBusy=6).
  std::array<std::atomic<std::uint64_t>, 7> frames_by_status_{};
};

}  // namespace vsq::net
