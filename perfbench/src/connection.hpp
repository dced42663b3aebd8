#pragma once

/// The load generator's connection: the wire protocol over one
/// nonblocking socket, with the file descriptor exposed so a single
/// thread can wait on every connection at once with microsecond
/// timeouts.  (net::Client's pump() waits in whole milliseconds on one
/// socket, so an open-loop generator on it must either spin or
/// oversleep its schedule.)

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/socket.hpp"
#include "service/request.hpp"

namespace perfbench {

class WireConnection {
 public:
  /// Connect to 127.0.0.1:@p port and negotiate the version (Hello /
  /// HelloAck).  Throws std::runtime_error on failure.
  explicit WireConnection(std::uint16_t port);

  WireConnection(const WireConnection&) = delete;
  WireConnection& operator=(const WireConnection&) = delete;

  int fd() const { return socket_.fd(); }

  /// Encode and write one request frame; returns its request id.
  /// Throws on a transport failure.
  std::uint64_t send(const mpct::service::Request& request);

  /// Read whatever the socket holds and append every complete response
  /// frame to @p out as (request id, response).  Throws on a transport
  /// failure or a broken stream.
  void receive(
      std::vector<std::pair<std::uint64_t, mpct::service::QueryResponse>>& out);

  /// Blocking round trip for one request (set-up only).
  mpct::service::QueryResponse call(const mpct::service::Request& request);

  std::uint64_t bytes_out() const { return bytes_out_; }
  std::uint64_t bytes_in() const { return bytes_in_; }
  std::uint64_t frames_out() const { return frames_out_; }
  std::uint64_t frames_in() const { return frames_in_; }

 private:
  void write_all(const std::vector<std::uint8_t>& frame);
  /// Append everything the socket holds to in_ (nonblocking).
  void read_available();
  /// Wait up to @p timeout_ms for the socket to become readable.
  bool wait_readable(int timeout_ms);

  mpct::net::Socket socket_;
  std::uint16_t version_ = 1;
  std::uint64_t next_id_ = 1;
  std::vector<std::uint8_t> in_;
  std::uint64_t bytes_out_ = 0, bytes_in_ = 0, frames_out_ = 0, frames_in_ = 0;
};

}  // namespace perfbench
