#include "connection.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "wire/protocol.hpp"

namespace perfbench {

using namespace mpct;

namespace {

constexpr int kIoTimeoutMs = 10000;
constexpr std::size_t kReadChunk = 64 * 1024;

std::runtime_error failure(const std::string& what) {
  return std::runtime_error("connection: " + what);
}

}  // namespace

WireConnection::WireConnection(std::uint16_t port) {
  std::string error;
  socket_ = net::connect_tcp("127.0.0.1", port, kIoTimeoutMs, error);
  if (!socket_.valid()) throw failure("connect: " + error);
  write_all(wire::encode_hello_frame(next_id_++, wire::kMinProtocolVersion,
                                     wire::kProtocolVersion));
  while (true) {
    const wire::FrameScan scan = wire::scan_frame(in_.data(), in_.size());
    if (scan.state == wire::FrameScan::State::Bad) {
      throw failure("Hello: " + scan.error.to_string());
    }
    if (scan.state == wire::FrameScan::State::Ready) {
      const auto ack = wire::decode_hello_ack_frame(in_.data(), scan.frame_size);
      if (!ack.ok() || !ack.value->status.ok()) throw failure("HelloAck refused");
      version_ = ack.value->agreed_version;
      in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(scan.frame_size));
      return;
    }
    if (!wait_readable(kIoTimeoutMs)) throw failure("HelloAck timed out");
    read_available();
  }
}

bool WireConnection::wait_readable(int timeout_ms) {
  pollfd pfd{socket_.fd(), POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0;
}

void WireConnection::write_all(const std::vector<std::uint8_t>& frame) {
  std::size_t offset = 0;
  while (offset < frame.size()) {
    const ssize_t n = ::send(socket_.fd(), frame.data() + offset,
                             frame.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      throw failure(std::string("send: ") + std::strerror(errno));
    }
    pollfd pfd{socket_.fd(), POLLOUT, 0};
    if (::poll(&pfd, 1, kIoTimeoutMs) <= 0) throw failure("send timed out");
  }
  bytes_out_ += frame.size();
  ++frames_out_;
}

void WireConnection::read_available() {
  std::uint8_t chunk[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(socket_.fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        return;
      }
      throw failure(n == 0 ? "closed by the server"
                           : std::string("recv: ") + std::strerror(errno));
    }
    in_.insert(in_.end(), chunk, chunk + n);
    bytes_in_ += static_cast<std::uint64_t>(n);
  }
}

std::uint64_t WireConnection::send(const service::Request& request) {
  const std::uint64_t id = next_id_++;
  write_all(wire::encode_request_frame(id, request, 0, version_));
  return id;
}

void WireConnection::receive(
    std::vector<std::pair<std::uint64_t, service::QueryResponse>>& out) {
  read_available();
  std::size_t offset = 0;
  while (true) {
    const wire::FrameScan scan =
        wire::scan_frame(in_.data() + offset, in_.size() - offset);
    if (scan.state == wire::FrameScan::State::NeedMore) break;
    if (scan.state == wire::FrameScan::State::Bad) {
      throw failure("broken stream: " + scan.error.to_string());
    }
    auto frame = wire::decode_response_frame(in_.data() + offset, scan.frame_size);
    if (!frame.ok()) throw failure("bad response: " + frame.error.to_string());
    ++frames_in_;
    out.emplace_back(frame.value->request_id, std::move(frame.value->response));
    offset += scan.frame_size;
  }
  in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(offset));
}

service::QueryResponse WireConnection::call(const service::Request& request) {
  const std::uint64_t id = send(request);
  std::vector<std::pair<std::uint64_t, service::QueryResponse>> answers;
  while (true) {
    receive(answers);
    for (auto& [answer_id, response] : answers) {
      if (answer_id == id) return std::move(response);
    }
    if (!wait_readable(kIoTimeoutMs)) throw failure("answer timed out");
  }
}

}  // namespace perfbench
