// Minimal blocking TCP socket wrappers for the serve subsystem: a listening
// socket and a connected stream socket with buffered newline-delimited line
// I/O. Plain POSIX sockets, no third-party deps. All waits go through
// poll(2) with a caller-supplied timeout so accept/read loops can observe a
// shutdown flag instead of blocking forever.

#ifndef FUME_UTIL_SOCKET_H_
#define FUME_UTIL_SOCKET_H_

#include <string>
#include <string_view>

#include "util/result.h"
#include "util/status.h"

namespace fume::util {

/// One connected stream socket (client side or accepted server side).
/// Move-only; closes its descriptor on destruction.
class Socket {
 public:
  enum class ReadResult {
    kLine,     // *line holds one complete line (newline stripped)
    kEof,      // peer closed cleanly with no pending line
    kTimeout,  // nothing arrived within timeout_ms
  };

  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to host:port (numeric or resolvable host).
  static Result<Socket> Connect(const std::string& host, int port,
                                int timeout_ms = 5000);

  bool valid() const { return fd_ >= 0; }
  void Close();

  /// Writes all of `data`, looping over partial writes. SIGPIPE-safe.
  Status SendAll(std::string_view data);

  /// Reads the next '\n'-terminated line into *line (terminator stripped).
  /// timeout_ms < 0 waits forever. Buffered: bytes beyond the first line
  /// are kept for the next call.
  Result<ReadResult> ReadLine(std::string* line, int timeout_ms = -1);

 private:
  int fd_ = -1;
  std::string buf_;
};

/// A listening TCP socket bound to 127.0.0.1.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket() { Close(); }
  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Binds and listens on `port` (0 picks an ephemeral port).
  static Result<ListenSocket> Listen(int port, int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  int port() const { return port_; }
  void Close();

  /// Waits up to timeout_ms for a connection; returns an invalid Socket on
  /// timeout (not an error) so callers can poll a stop flag between waits.
  Result<Socket> Accept(int timeout_ms);

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace fume::util

#endif  // FUME_UTIL_SOCKET_H_
