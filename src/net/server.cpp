#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "fault/failpoint.h"
#include "net/protocol.h"
#include "net/socket_io.h"

namespace vsq::net {
namespace {

// One-shot HTTP response (Connection: close keeps the server's HTTP
// surface stateless — curl and probes reconnect per request).
std::string http_response(const char* status, const char* content_type, const std::string& body) {
  std::ostringstream os;
  os << "HTTP/1.1 " << status << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  return os.str();
}

// Graceful connection teardown: send FIN, then consume whatever the peer
// still has in flight until it closes (bounded). Closing a socket with
// unread received bytes makes the kernel send RST instead of FIN, which
// discards the response we just wrote before the peer can read it — e.g.
// the HTTP path never reads the request's header block, and an error
// reply to a garbage frame must still survive the close.
void linger_drain(int fd, int timeout_ms) {
  ::shutdown(fd, SHUT_WR);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  char scratch[512];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) break;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int prc = ::poll(&pfd, 1, static_cast<int>(left));
    if (prc == 0) break;
    if (prc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const ssize_t rc = ::recv(fd, scratch, sizeof(scratch), 0);
    if (rc == 0) break;  // peer's FIN: it has everything
    if (rc < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
  }
}

}  // namespace

NetServer::NetServer(ModelRegistry& registry, NetServerConfig cfg)
    : registry_(registry), cfg_(std::move(cfg)) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  const std::string ip = (cfg_.host == "localhost" || cfg_.host.empty()) ? "127.0.0.1" : cfg_.host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("NetServer: cannot parse bind address: " + cfg_.host);
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw std::runtime_error("NetServer: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    close_fd(listen_fd_);
    throw std::runtime_error("NetServer: bind(" + cfg_.host + ":" + std::to_string(cfg_.port) +
                             ") failed: " + err);
  }
  if (::listen(listen_fd_, 128) != 0) {
    close_fd(listen_fd_);
    throw std::runtime_error("NetServer: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    close_fd(listen_fd_);
    throw std::runtime_error("NetServer: getsockname() failed");
  }
  port_ = static_cast<int>(ntohs(bound.sin_port));
  accept_thread_ = std::thread([this] { accept_loop(); });
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  close_fd(listen_fd_);
  listen_fd_ = -1;
  {
    // Wake every connection thread out of its poll: shutdown() makes the
    // next recv return 0. The fd itself is closed only after the join (in
    // reap), so there is no close/reuse race with an in-flight thread.
    std::lock_guard lock(conns_mu_);
    for (Conn& c : conns_) ::shutdown(c.fd, SHUT_RDWR);
  }
  reap(/*all=*/true);
}

std::uint64_t NetServer::frames_rejected() const {
  return frames_by_status(Status::kUnknownModel) + frames_by_status(Status::kBadRequest) +
         frames_by_status(Status::kError) + frames_by_status(Status::kUnavailable);
}

std::size_t NetServer::active_connections() const {
  std::lock_guard lock(conns_mu_);
  std::size_t n = 0;
  for (const Conn& c : conns_) {
    if (!c.done.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

void NetServer::reap(bool all) {
  std::list<Conn> finished;
  {
    std::lock_guard lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || it->done.load(std::memory_order_acquire)) {
        finished.splice(finished.end(), conns_, it++);
      } else {
        ++it;
      }
    }
  }
  for (Conn& c : finished) {
    if (c.th.joinable()) c.th.join();
    close_fd(c.fd);
  }
}

void NetServer::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 100);
    if (stopping_.load()) break;
    if (rc <= 0) {
      if (rc < 0 && errno != EINTR) break;
      reap(/*all=*/false);  // idle tick: join finished connection threads
      continue;
    }
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) continue;
    // Injected accept failure: the connection is dropped on the floor as
    // if accept4 had failed post-handshake (client sees a reset/EOF and
    // must handle it as a transport error, not a protocol reply).
    bool drop = false;
    try {
      drop = VSQ_FAILPOINT_TRIGGERED("net.server.accept");
    } catch (...) {
      drop = true;  // an error-policy failpoint must not kill the accept thread
    }
    if (drop) {
      close_fd(fd);
      continue;
    }
    accepted_.fetch_add(1);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    reap(/*all=*/false);
    {
      std::lock_guard lock(conns_mu_);
      if (cfg_.max_connections > 0 &&
          conns_.size() >= static_cast<std::size_t>(cfg_.max_connections)) {
        frames_by_status_[static_cast<std::size_t>(Status::kBusy)].fetch_add(1);
        ResponseFrame busy;
        busy.status = Status::kBusy;
        busy.message = "server at connection cap";
        const auto frame = encode_response(busy);
        write_full(fd, frame.data(), frame.size(), cfg_.write_timeout_ms);
        close_fd(fd);
        continue;
      }
      conns_.emplace_back();
      Conn* conn = &conns_.back();
      conn->fd = fd;
      conn->th = std::thread([this, conn] { serve_conn(conn); });
    }
  }
}

bool NetServer::serve_http(int fd, const std::array<char, 4>& first) {
  http_requests_.fetch_add(1);
  // We already consumed "GET "; pull in the rest of the request line (we
  // only route on the path — headers and body, if any, are irrelevant and
  // left unread; the response closes the connection).
  std::string line(first.data(), first.size());
  while (line.size() < 2048 && line.find('\n') == std::string::npos) {
    char ch = 0;
    if (!read_full(fd, &ch, 1, cfg_.frame_timeout_ms, cfg_.frame_timeout_ms)) return false;
    line.push_back(ch);
  }
  std::string path = line.substr(4);
  const std::size_t sp = path.find_first_of(" \r\n");
  if (sp != std::string::npos) path.resize(sp);

  std::string resp;
  if (path == "/stats") {
    resp = http_response("200 OK", "application/json", stats_json());
  } else if (path == "/healthz") {
    resp = http_response("200 OK", "text/plain", "ok\n");
  } else {
    resp = http_response("404 Not Found", "text/plain", "unknown path: " + path + "\n");
  }
  write_full(fd, resp.data(), resp.size(), cfg_.write_timeout_ms);
  return false;  // HTTP is one request per connection
}

void NetServer::serve_conn(Conn* conn) {
  // An escaped exception (an armed error-policy failpoint included) must
  // drop THIS connection, never the process: std::thread + uncaught throw
  // is std::terminate.
  try {
    serve_conn_loop(conn->fd);
  } catch (...) {
    protocol_errors_.fetch_add(1);
  }
  linger_drain(conn->fd, 500);
  conn->done.store(true, std::memory_order_release);
}

void NetServer::serve_conn_loop(const int fd) {
  while (!stopping_.load()) {
    // First byte of a frame may idle-wait; everything after it is a
    // started frame and runs on the (tighter) frame deadline, so a peer
    // that sends half a header and stalls is cut off, not serviced
    // forever.
    std::array<char, 4> tag{};
    bool eof = false;
    if (!read_full(fd, tag.data(), 1, cfg_.idle_timeout_ms, cfg_.frame_timeout_ms, &eof)) {
      break;  // clean close or idle timeout between frames
    }
    if (!read_full(fd, tag.data() + 1, 3, cfg_.frame_timeout_ms, cfg_.frame_timeout_ms)) {
      protocol_errors_.fetch_add(1);  // died inside a frame header
      break;
    }
    if (std::memcmp(tag.data(), "GET ", 4) == 0) {
      serve_http(fd, tag);
      break;
    }

    std::uint8_t header[kHeaderBytes];
    std::memcpy(header, tag.data(), 4);
    if (!read_full(fd, header + 4, kHeaderBytes - 4, cfg_.frame_timeout_ms,
                   cfg_.frame_timeout_ms)) {
      protocol_errors_.fetch_add(1);
      break;
    }
    std::uint32_t body_len = 0;
    if (!parse_header(header, &body_len)) {
      protocol_errors_.fetch_add(1);
      frames_by_status_[static_cast<std::size_t>(Status::kBadRequest)].fetch_add(1);
      ResponseFrame bad;
      bad.status = Status::kBadRequest;
      bad.message = "bad magic";
      const auto frame = encode_response(bad);
      write_full(fd, frame.data(), frame.size(), cfg_.write_timeout_ms);
      break;  // the byte stream is out of sync; nothing sane can follow
    }
    if (body_len > cfg_.max_body_bytes) {
      protocol_errors_.fetch_add(1);
      frames_by_status_[static_cast<std::size_t>(Status::kBadRequest)].fetch_add(1);
      ResponseFrame bad;
      bad.status = Status::kBadRequest;
      bad.message = "body too large: " + std::to_string(body_len) + " bytes";
      const auto frame = encode_response(bad);
      write_full(fd, frame.data(), frame.size(), cfg_.write_timeout_ms);
      break;  // refusing to buffer it means refusing to skip it: resync by closing
    }
    // Injected slow/failed read between header and body (delay models a
    // trickling peer; an error policy drops the connection like a read
    // failure would — the outer catch maps it to a protocol error).
    VSQ_FAILPOINT("net.server.read.pre_body");
    std::vector<std::uint8_t> body(body_len);
    if (body_len > 0 && !read_full(fd, body.data(), body.size(), cfg_.frame_timeout_ms,
                                   cfg_.frame_timeout_ms)) {
      protocol_errors_.fetch_add(1);
      break;  // half-delivered body (slow trickle or mid-request disconnect)
    }

    ResponseFrame resp = handle_request(body);
    frames_by_status_[static_cast<std::size_t>(resp.status)].fetch_add(1);
    const auto frame = encode_response(resp);
    // Injected torn write: send only half the frame, then drop the
    // connection. The client must surface a clean transport error (its
    // strict decoder rejects the truncated frame), never hang or accept
    // partial bytes as a response.
    if (VSQ_FAILPOINT_TRIGGERED("net.server.write.partial")) {
      write_full(fd, frame.data(), frame.size() / 2, cfg_.write_timeout_ms);
      break;
    }
    if (!write_full(fd, frame.data(), frame.size(), cfg_.write_timeout_ms)) {
      break;  // peer vanished or stalled reading its own answer
    }
  }
}

ResponseFrame NetServer::handle_request(const std::vector<std::uint8_t>& body) {
  ResponseFrame resp;
  RequestFrame req;
  std::string err;
  if (!decode_request(std::span<const std::uint8_t>(body.data(), body.size()), &req, &err)) {
    resp.status = Status::kBadRequest;
    resp.message = err;
    return resp;
  }

  // session() (not registry_.submit) so the request's priority lane
  // reaches admission control; nullptr is the unknown-model answer.
  std::shared_ptr<InferenceSession> sess = registry_.session(req.model);
  if (!sess) {
    resp.status = Status::kUnknownModel;
    resp.message = "model not loaded: " + req.model;
    return resp;
  }

  Tensor input(Shape{static_cast<std::int64_t>(req.row.size())});
  std::memcpy(input.data(), req.row.data(), req.row.size() * sizeof(float));

  // Wire deadline -> absolute steady-clock deadline at receipt. Relative
  // on the wire, so no client/server clock agreement is needed.
  const auto deadline = req.deadline_ms > 0
                            ? std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(req.deadline_ms)
                            : std::chrono::steady_clock::time_point::max();

  std::future<Tensor> fut;
  try {
    fut = sess->submit(input, req.priority, deadline);
  } catch (const QueueFullError& e) {
    resp.status = Status::kShed;
    resp.message = e.what();
    return resp;
  } catch (const DeadlineExpiredError& e) {
    resp.status = Status::kShed;  // expired at the door: shed, never ran
    resp.message = e.what();
    return resp;
  } catch (const std::invalid_argument& e) {
    resp.status = Status::kBadRequest;
    resp.message = e.what();
    return resp;
  } catch (const std::exception& e) {
    resp.status = Status::kUnavailable;  // session shutting down / draining
    resp.message = e.what();
    return resp;
  }

  try {
    // Safe to block: the batcher resolves every accepted promise — even
    // through shutdown's drain, and a dead worker's abandoned promises
    // break (std::future_error below) rather than hang.
    Tensor y = fut.get();
    const auto n = static_cast<std::size_t>(y.numel());
    resp.row.assign(y.data(), y.data() + n);
    resp.status = Status::kOk;
  } catch (const DeadlineExpiredError& e) {
    // Swept out of the batch unexecuted: same contract as an admission
    // shed from the client's point of view.
    resp.status = Status::kShed;
    resp.message = e.what();
  } catch (const UnavailableError& e) {
    resp.status = Status::kUnavailable;  // worker failed over; may retry
    resp.message = e.what();
  } catch (const std::future_error&) {
    // Broken promise: the serving worker died holding this request.
    resp.status = Status::kUnavailable;
    resp.message = "serving worker died mid-request";
  } catch (const std::exception& e) {
    resp.status = Status::kError;  // accepted but the batch threw
    resp.message = e.what();
  }
  return resp;
}

std::string NetServer::stats_json() const {
  std::ostringstream os;
  os << "{\"server\":{"
     << "\"connections_accepted\":" << connections_accepted()
     << ",\"active_connections\":" << active_connections()
     << ",\"busy_rejects\":" << busy_rejects()
     << ",\"frames_ok\":" << frames_ok()
     << ",\"frames_shed\":" << frames_shed()
     << ",\"frames_rejected\":" << frames_rejected()
     << ",\"protocol_errors\":" << protocol_errors()
     << ",\"http_requests\":" << http_requests()
     << ",\"frames_by_status\":{";
  for (int s = 0; s <= static_cast<int>(Status::kBusy); ++s) {
    if (s) os << ',';
    os << '"' << status_name(static_cast<Status>(s))
       << "\":" << frames_by_status(static_cast<Status>(s));
  }
  os << "}},\"models\":[";
  bool first = true;
  for (const RegistryModelStats& m : registry_.stats_all()) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(m.name) << "\",\"serve\":" << m.serve.json() << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace vsq::net
