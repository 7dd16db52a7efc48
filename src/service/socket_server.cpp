#include "src/service/socket_server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/common/annotations.h"
#include "src/sim/fault.h"

namespace gg::service {

namespace {

/// EINTR retries per syscall before deferring to the next poll tick.
constexpr int kEintrBudget = 8;
/// Per-connection buffer bound, both directions.  An input line that never
/// ends, or an output backlog the peer will not drain, stops here instead
/// of growing without bound; the telemetry hub's ring (not this buffer) is
/// the unit of backpressure accounting for streams, so the transport keeps
/// its slice small.
constexpr std::size_t kMaxBuffered = 64 * 1024;
constexpr int kPollTickMs = 50;

void fill_addr(sockaddr_un& addr, const std::string& path) {
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Write up to `size` bytes without ever blocking the caller.  Returns the
/// byte count accepted (0 = try again next tick: EAGAIN, a stalled-peer or
/// EINTR injection, or a real EINTR budget exhausted), or -1 when the peer
/// is gone (EPIPE, ECONNRESET, injected EPIPE, any other hard error).
/// MSG_NOSIGNAL keeps a dead peer from raising SIGPIPE even if the daemon's
/// global ignore is missing.
GG_NONBLOCK_IO ssize_t write_some(int fd, const char* data, std::size_t size,
                                  sim::SocketFaultInjector* faults) {
  std::size_t attempt = size;
  if (faults != nullptr) {
    std::size_t allowed = size;
    switch (faults->draw_write(size, allowed)) {
      case sim::SocketFault::kShortWrite:
        attempt = allowed;
        break;
      case sim::SocketFault::kEintr:
      case sim::SocketFault::kStall:
        return 0;  // accepted nothing this tick; caller re-polls
      case sim::SocketFault::kEpipe:
        return -1;
      default:
        break;
    }
  }
  for (int retry = 0; retry < kEintrBudget; ++retry) {
    const ssize_t n = ::send(fd, data, attempt, MSG_NOSIGNAL);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;  // EPIPE / ECONNRESET / anything else: peer is gone
  }
  return 0;
}

/// Read up to `size` bytes without blocking.  Returns bytes read (> 0),
/// 0 when nothing is available this tick (EAGAIN, EINTR), or -1 when the
/// connection ended (orderly EOF, injected disconnect, any hard error).
GG_NONBLOCK_IO ssize_t read_some(int fd, char* buf, std::size_t size,
                                 sim::SocketFaultInjector* faults) {
  std::size_t attempt = size;
  if (faults != nullptr) {
    std::size_t allowed = size;
    switch (faults->draw_read(size, allowed)) {
      case sim::SocketFault::kShortRead:
        attempt = allowed;
        break;
      case sim::SocketFault::kEintr:
        return 0;
      case sim::SocketFault::kDisconnect:
        return -1;
      default:
        break;
    }
  }
  for (int retry = 0; retry < kEintrBudget; ++retry) {
    const ssize_t n = ::recv(fd, buf, attempt, 0);
    if (n > 0) return n;
    if (n == 0) return -1;  // orderly EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
  return 0;
}

/// Blocking-client helper: write the whole buffer, retrying EINTR (bounded)
/// and partial writes.  Client-side only — the daemon never calls this.
GG_NONBLOCK_IO bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  int retries = 0;
  while (sent < size) {
    const ssize_t w = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      retries = 0;
      continue;
    }
    if (w < 0 && errno == EINTR && ++retries < kEintrBudget) continue;
    return false;
  }
  return true;
}

/// Blocking-client helper: one chunk read with bounded EINTR retry.
/// Returns bytes read, 0 on EOF, -1 on error.
GG_NONBLOCK_IO ssize_t read_chunk(int fd, char* buf, std::size_t size) {
  for (int retry = 0; retry < kEintrBudget; ++retry) {
    const ssize_t n = ::recv(fd, buf, size, 0);
    if (n >= 0) return n;
    if (errno != EINTR) return -1;
  }
  return -1;
}

[[nodiscard]] bool is_watch_line(const std::string& line) {
  return line == "WATCH" || line.rfind("WATCH ", 0) == 0;
}

/// One multiplexed connection.  `watch_id` > 0 marks a connection that
/// completed a WATCH handshake: its output is fed from the telemetry hub
/// and its input is drained only to detect disconnect.
struct Conn {
  int fd{-1};
  std::string in;   ///< unterminated tail of received bytes
  std::string out;  ///< reply/frame bytes not yet accepted by the peer
  bool read_closed{false};
  bool dead{false};
  std::uint64_t watch_id{0};
};

int connect_client(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("socket", path);
  sockaddr_un addr;
  fill_addr(addr, path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    fail("connect", path);
  }
  return fd;
}

}  // namespace

SocketServer::SocketServer(std::string path) : path_(std::move(path)) {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) fail("socket", path_);
  sockaddr_un addr;
  fill_addr(addr, path_);
  ::unlink(path_.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    fail("bind", path_);
  }
  if (::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    fail("listen", path_);
  }
  set_nonblocking(listen_fd_);
}

SocketServer::~SocketServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(path_.c_str());
}

void SocketServer::serve(const LineHandler& handler,
                         const std::atomic<bool>& stop) {
  serve(handler, StreamHooks{}, stop);
}

void SocketServer::serve(const LineHandler& handler, const StreamHooks& hooks,
                         const std::atomic<bool>& stop) {
  const bool streaming = static_cast<bool>(hooks.subscribe);
  std::vector<Conn> conns;
  std::vector<pollfd> pfds;
  char chunk[4096];

  const auto drop = [&](Conn& conn) {
    if (conn.dead) return;
    if (conn.watch_id != 0 && hooks.unsubscribe) {
      hooks.unsubscribe(conn.watch_id);
    }
    ::close(conn.fd);
    conn.dead = true;
  };

  while (!stop.load(std::memory_order_acquire)) {
    pfds.clear();
    // GG_BOUNDED(one pollfd per live connection plus the listener)
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const Conn& conn : conns) {
      short events = 0;
      if (!conn.read_closed) events |= POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      // GG_BOUNDED(mirrors conns, itself bounded by accepted connections)
      pfds.push_back(pollfd{conn.fd, events, 0});
    }

    const int ready = ::poll(pfds.data(), pfds.size(), kPollTickMs);
    if (ready < 0 && errno != EINTR) fail("poll", path_);

    // Accept every pending connection; new conns join next tick's poll set.
    if (ready > 0 && (pfds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;  // EAGAIN / EINTR: done for this tick
        set_nonblocking(fd);
        Conn conn;
        conn.fd = fd;
        // GG_BOUNDED(one entry per live connection; dead ones reaped per tick)
        conns.push_back(std::move(conn));
      }
    }

    // Read phase: drain readable sockets, dispatch completed lines.  Only
    // the conns polled this tick have a pollfd; ones accepted above wait.
    const std::size_t polled = pfds.size() - 1;
    for (std::size_t i = 0; i < polled; ++i) {
      Conn& conn = conns[i];
      if (conn.dead || conn.read_closed) continue;
      const pollfd& pfd = pfds[i + 1];
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = read_some(conn.fd, chunk, sizeof chunk, faults_);
      if (n < 0) {
        if (conn.watch_id != 0 || conn.out.empty()) {
          drop(conn);
        } else {
          conn.read_closed = true;  // flush pending replies, then close
        }
        continue;
      }
      if (n == 0) continue;
      if (conn.watch_id != 0) continue;  // stream conns: input is discarded
      // GG_BOUNDED(capped at kMaxBuffered just below)
      conn.in.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = conn.in.find('\n', start);
        if (nl == std::string::npos) break;
        std::string line = conn.in.substr(start, nl - start);
        start = nl + 1;
        if (streaming && is_watch_line(line)) {
          std::string reply;
          const std::uint64_t id = hooks.subscribe(line, reply);
          // GG_BOUNDED(out is capped at kMaxBuffered per tick; overflow
          // drops the connection below)
          conn.out += reply + "\n";
          if (id != 0) {
            conn.watch_id = id;
            break;  // connection is now a one-way stream
          }
          continue;
        }
        // GG_BOUNDED(out is capped at kMaxBuffered per tick; overflow drops
        // the connection below)
        conn.out += handler(line) + "\n";
      }
      conn.in.erase(0, start);
      if (conn.watch_id != 0) conn.in.clear();
      if (conn.in.size() > kMaxBuffered || conn.out.size() > kMaxBuffered) {
        drop(conn);  // unterminated line or undrainable backlog: protocol abuse
      }
    }

    // Frame phase: top up each stream connection from the telemetry hub.
    if (streaming) {
      for (Conn& conn : conns) {
        if (conn.dead || conn.watch_id == 0) continue;
        while (conn.out.size() < kMaxBuffered) {
          const std::optional<std::string> frame =
              hooks.next_frame(conn.watch_id);
          if (!frame.has_value()) break;
          // GG_BOUNDED(loop exits at kMaxBuffered; undelivered frames stay
          // in the hub's fixed ring)
          conn.out += *frame + "\n";
        }
      }
    }

    // Write phase: push pending bytes, account stream progress.
    for (Conn& conn : conns) {
      if (conn.dead || conn.out.empty()) continue;
      const ssize_t n =
          write_some(conn.fd, conn.out.data(), conn.out.size(), faults_);
      if (n < 0) {
        drop(conn);  // EPIPE on a stream = slow consumer gone, not a crash
        continue;
      }
      if (n > 0) conn.out.erase(0, static_cast<std::size_t>(n));
      if (conn.watch_id != 0 && hooks.note_progress) {
        hooks.note_progress(conn.watch_id, n > 0);
      }
    }

    // Tick phase: heartbeat/stall clocks advance; evicted subscribers are
    // disconnected here (the hub already forgot them).
    if (streaming && hooks.tick) {
      for (const std::uint64_t id : hooks.tick()) {
        for (Conn& conn : conns) {
          if (!conn.dead && conn.watch_id == id) {
            conn.watch_id = 0;  // already removed from the hub
            drop(conn);
          }
        }
      }
    }

    // Reap phase.
    for (Conn& conn : conns) {
      if (!conn.dead && conn.read_closed && conn.out.empty()) drop(conn);
    }
    std::size_t live = 0;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (!conns[i].dead) {
        if (live != i) conns[live] = std::move(conns[i]);
        ++live;
      }
    }
    conns.resize(live);
  }

  for (Conn& conn : conns) drop(conn);
}

std::string socket_request(const std::string& path, const std::string& lines) {
  const int fd = connect_client(path);
  std::string request = lines;
  if (request.empty() || request.back() != '\n') request += '\n';
  std::size_t expected = 0;
  for (const char c : request) expected += c == '\n' ? 1 : 0;
  if (!write_all(fd, request.data(), request.size())) {
    ::close(fd);
    fail("write", path);
  }
  ::shutdown(fd, SHUT_WR);
  std::string replies;
  char chunk[4096];
  std::size_t newlines = 0;
  while (newlines < expected) {
    const ssize_t n = read_chunk(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    // GG_BOUNDED(one reply line per request line sent on this connection)
    replies.append(chunk, static_cast<std::size_t>(n));
    newlines = 0;
    for (const char c : replies) newlines += c == '\n' ? 1 : 0;
  }
  ::close(fd);
  return replies;
}

std::size_t socket_watch(const std::string& path, const std::string& request,
                         int idle_timeout_ms,
                         const std::function<bool(const std::string&)>& on_frame) {
  const int fd = connect_client(path);
  std::string line = request;
  if (line.empty() || line.back() != '\n') line += '\n';
  if (!write_all(fd, line.data(), line.size())) {
    ::close(fd);
    fail("write", path);
  }
  std::size_t delivered = 0;
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, idle_timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;  // idle timeout or poll failure: stop watching
    const ssize_t n = read_chunk(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    // GG_BOUNDED(frames are consumed as soon as their newline arrives)
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      ++delivered;
      if (!on_frame(buffer.substr(start, nl - start))) {
        open = false;
        break;
      }
      start = nl + 1;
    }
    buffer.erase(0, start);
  }
  ::close(fd);
  return delivered;
}

}  // namespace gg::service
