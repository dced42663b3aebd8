#include "net/client.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>

#include "trace/trace.hpp"
#include "wire/wire.hpp"

namespace mpct::net {
namespace {

using Clock = service::Clock;

/// Remaining budget in whole milliseconds for the wire (0 = no
/// deadline).  A just-expired deadline maps to 1 ms, not 0: the server
/// must still see *a* deadline and answer DeadlineExceeded.
std::uint32_t wire_deadline_ms(service::Deadline deadline,
                               Clock::time_point now) {
  if (deadline.is_infinite()) return 0;
  const auto remaining =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline.at - now)
          .count();
  if (remaining <= 0) return 1;
  if (remaining >= std::numeric_limits<std::uint32_t>::max()) {
    return std::numeric_limits<std::uint32_t>::max();
  }
  return static_cast<std::uint32_t>(remaining);
}

/// poll() timeout honouring both the io stall bound and the deadline.
int poll_timeout_ms(std::chrono::milliseconds io_timeout,
                    service::Deadline deadline, Clock::time_point now) {
  auto timeout = io_timeout;
  if (!deadline.is_infinite()) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline.at -
                                                              now);
    timeout = std::min(timeout, std::max(remaining,
                                         std::chrono::milliseconds(1)));
  }
  return static_cast<int>(timeout.count());
}

}  // namespace

Client::Client(ClientOptions options) : options_(std::move(options)) {}

void Client::disconnect() {
  socket_.close();
  reader_.reset();
  pending_.clear();
  completed_.clear();
  pongs_.clear();
  hello_ack_.reset();
}

service::QueryResponse Client::call(service::Request request,
                                    service::Deadline deadline,
                                    std::uint64_t trace_id) {
  std::vector<service::Request> batch;
  batch.push_back(std::move(request));
  return std::move(call_batch(std::move(batch), deadline, trace_id).front());
}

std::vector<service::QueryResponse> Client::call_batch(
    std::vector<service::Request> requests, service::Deadline deadline,
    std::uint64_t trace_id) {
  trace::ScopedSpan span("net.call_batch", trace::Category::Net, "requests",
                         static_cast<std::int64_t>(requests.size()));
  // Logical requests, counted exactly once — retries below re-send some
  // of these but never re-count them.
  if (options_.metrics) {
    options_.metrics->net_requests_sent.add(requests.size());
  }
  std::vector<service::QueryResponse> responses(requests.size());
  std::vector<std::size_t> unanswered(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) unanswered[i] = i;

  int attempts = 0;
  auto backoff = options_.initial_backoff;
  // Sleep before a retry, honouring @p hint (a shedding server's
  // retry_after_ms) and never past the deadline.
  const auto pause_for_retry = [&](std::chrono::milliseconds hint) {
    auto pause = std::max(backoff, hint);
    if (!deadline.is_infinite()) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline.at - Clock::now());
      pause = std::min(pause, std::max(remaining,
                                       std::chrono::milliseconds(0)));
    }
    if (pause.count() > 0) std::this_thread::sleep_for(pause);
    backoff *= 2;
  };
  while (!unanswered.empty()) {
    if (deadline.expired()) {
      for (std::size_t i : unanswered) {
        responses[i].status = service::Status::deadline_exceeded();
      }
      break;
    }
    std::string error;
    const std::vector<std::size_t> sent = unanswered;
    if (attempt(requests, unanswered, responses, deadline, trace_id, error)) {
      // Overloaded answers are admission-control backpressure, not
      // verdicts on the request: within the retry budget, resend them
      // after sleeping at least the server's retry-after hint.
      std::vector<std::size_t> shed;
      std::uint32_t hint_ms = 0;
      for (std::size_t i : sent) {
        if (responses[i].status.code == service::StatusCode::Overloaded) {
          shed.push_back(i);
          hint_ms = std::max(hint_ms, responses[i].status.retry_after_ms);
        }
      }
      if (shed.empty() || attempts >= options_.max_retries ||
          deadline.expired()) {
        break;
      }
      ++attempts;
      if (options_.metrics) options_.metrics->net_retries.add();
      pause_for_retry(std::chrono::milliseconds(hint_ms));
      unanswered = std::move(shed);
      continue;
    }

    // Transport failure: the stream is unusable (unknown how much the
    // server saw), so reconnect and resend only what is unanswered.
    disconnect();
    if (attempts >= options_.max_retries) {
      for (std::size_t i : unanswered) {
        responses[i].status = service::Status::unavailable(error);
      }
      break;
    }
    ++attempts;
    if (options_.metrics) options_.metrics->net_retries.add();
    pause_for_retry(std::chrono::milliseconds(0));
  }
  return responses;
}

bool Client::ensure_connected(std::string& error) {
  if (socket_.valid()) return true;
  socket_ = connect_tcp(
      options_.host, options_.port,
      static_cast<int>(options_.connect_timeout.count()), error);
  if (socket_.valid() && options_.metrics) {
    options_.metrics->net_connections_opened.add();
  }
  return socket_.valid();
}

bool Client::attempt(const std::vector<service::Request>& requests,
                     std::vector<std::size_t>& unanswered,
                     std::vector<service::QueryResponse>& responses,
                     service::Deadline deadline, std::uint64_t trace_id,
                     std::string& error) {
  if (!ensure_connected(error)) return false;
  service::MetricsRegistry* metrics = options_.metrics;
  const Clock::time_point send_time = Clock::now();
  const std::uint32_t deadline_ms = wire_deadline_ms(deadline, send_time);

  // Pipelining: every frame is encoded up front and written as fast as
  // the socket accepts, before any response is awaited.
  std::vector<std::uint8_t> out;
  std::unordered_map<std::uint64_t, std::size_t> id_to_index;
  id_to_index.reserve(unanswered.size());
  for (std::size_t index : unanswered) {
    const std::uint64_t id = next_id_++;
    id_to_index.emplace(id, index);
    // Untraced calls still get a per-request trace id (the request id)
    // so the server can stitch its spans to this frame.
    const auto frame = wire::encode_request_frame(
        id, requests[index], deadline_ms, wire::kProtocolVersion,
        trace_id != 0 ? trace_id : id, options_.priority);
    out.insert(out.end(), frame.begin(), frame.end());
    pending_.insert(id);
    if (metrics) metrics->net_frames_out.add();
  }

  std::size_t out_offset = 0;
  // id_to_index keeps only the ids still awaiting an answer.
  const auto finish = [&](bool ok) {
    unanswered.clear();
    for (const auto& [id, index] : id_to_index) unanswered.push_back(index);
    std::sort(unanswered.begin(), unanswered.end());
    return ok;
  };

  while (!id_to_index.empty()) {
    const Clock::time_point now = Clock::now();
    if (deadline.expired(now)) {
      // Answer the stragglers locally and reset the stream: responses
      // for this attempt's ids may still arrive, and the next attempt
      // must not misread them.
      for (const auto& [id, index] : id_to_index) {
        responses[index].status = service::Status::deadline_exceeded();
      }
      id_to_index.clear();
      disconnect();
      return finish(true);
    }

    pollfd pfd{socket_.fd(), POLLIN, 0};
    if (out_offset < out.size()) pfd.events |= POLLOUT;
    const int ready = ::poll(
        &pfd, 1, poll_timeout_ms(options_.io_timeout, deadline, now));
    if (ready < 0) {
      if (errno == EINTR) continue;
      error = std::string("poll: ") + ::strerror(errno);
      return finish(false);
    }
    if (ready == 0) {
      if (deadline.expired()) continue;  // handled at the top of the loop
      error = "I/O timed out";
      return finish(false);
    }

    if (pfd.revents & POLLOUT) {
      const ssize_t n = ::send(socket_.fd(), out.data() + out_offset,
                               out.size() - out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        out_offset += static_cast<std::size_t>(n);
        if (metrics) metrics->net_bytes_out.add(static_cast<std::uint64_t>(n));
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        error = std::string("send: ") + ::strerror(errno);
        return finish(false);
      }
    }

    if (pfd.revents & (POLLIN | POLLERR | POLLHUP)) {
      if (!receive(error)) return finish(false);
      for (auto it = completed_.begin(); it != completed_.end();) {
        const auto slot = id_to_index.find(it->first);
        if (slot == id_to_index.end()) {
          ++it;
          continue;
        }
        responses[slot->second] = std::move(it->second);
        id_to_index.erase(slot);
        it = completed_.erase(it);
      }
    }
  }
  return finish(true);
}

bool Client::write_frame(const std::vector<std::uint8_t>& frame,
                         service::Deadline deadline, std::string& error) {
  std::size_t offset = 0;
  while (offset < frame.size()) {
    const Clock::time_point now = Clock::now();
    if (deadline.expired(now)) {
      error = "deadline expired mid-write";
      disconnect();
      return false;
    }
    pollfd pfd{socket_.fd(), POLLOUT, 0};
    const int ready = ::poll(
        &pfd, 1, poll_timeout_ms(options_.io_timeout, deadline, now));
    if (ready < 0) {
      if (errno == EINTR) continue;
      error = std::string("poll: ") + ::strerror(errno);
      disconnect();
      return false;
    }
    if (ready == 0) {
      error = "I/O timed out";
      disconnect();
      return false;
    }
    const ssize_t n = ::send(socket_.fd(), frame.data() + offset,
                             frame.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<std::size_t>(n);
      if (options_.metrics) {
        options_.metrics->net_bytes_out.add(static_cast<std::uint64_t>(n));
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                  errno == EINTR)) {
      continue;
    }
    error = std::string("send: ") + ::strerror(errno);
    disconnect();
    return false;
  }
  if (options_.metrics) options_.metrics->net_frames_out.add();
  return true;
}

bool Client::receive(std::string& error) {
  service::MetricsRegistry* metrics = options_.metrics;
  const auto broken = [&](const char* what, const wire::WireError& cause) {
    if (metrics) metrics->net_decode_errors.add();
    error = what + cause.to_string();
    return false;
  };
  const FrameReader::Result result = reader_.read(
      socket_.fd(),
      [&](const wire::FrameScan& scan, const std::uint8_t* frame) {
        switch (scan.header.kind) {
          case wire::FrameKind::Pong:
            pongs_.insert(scan.header.request_id);
            return true;
          case wire::FrameKind::HelloAck: {
            auto ack = wire::decode_hello_ack_frame(frame, scan.frame_size);
            if (!ack.ok()) return broken("bad HelloAck frame: ", ack.error);
            hello_ack_ = *ack.value;
            return true;
          }
          case wire::FrameKind::Response:
            break;
          default:
            return true;  // Request/Ping/Hello towards a client: ignore
        }
        auto decoded = wire::decode_response_frame(frame, scan.frame_size);
        if (!decoded.ok()) {
          return broken("bad response frame: ", decoded.error);
        }
        if (metrics) metrics->net_frames_in.add();
        const std::uint64_t id = decoded.value->request_id;
        // Untracked (cancelled or stale) responses are dropped.
        if (pending_.erase(id) > 0) {
          completed_.emplace(id, std::move(decoded.value->response));
        }
        return true;
      });
  if (metrics && result.bytes > 0) metrics->net_bytes_in.add(result.bytes);
  switch (result.status) {
    case FrameReader::Status::Read:
    case FrameReader::Status::Again:
      return true;
    case FrameReader::Status::Closed:
      error = "connection closed by server";
      break;
    case FrameReader::Status::Failed:
      error = std::string("recv: ") + ::strerror(errno);
      break;
    case FrameReader::Status::BadStream:
      broken("bad response stream: ", result.error);
      break;
    case FrameReader::Status::Stopped:
      break;  // the frame callback set error
  }
  return false;
}

bool Client::send_request(const service::Request& request,
                          service::Deadline deadline, std::uint64_t trace_id,
                          std::uint64_t& id_out, std::string& error,
                          std::optional<qos::PriorityClass> priority) {
  if (!ensure_connected(error)) return false;
  const Clock::time_point now = Clock::now();
  const std::uint64_t id = next_id_++;
  const auto frame = wire::encode_request_frame(
      id, request, wire_deadline_ms(deadline, now), wire::kProtocolVersion,
      trace_id != 0 ? trace_id : id, priority ? priority : options_.priority);
  if (!write_frame(frame, deadline, error)) return false;
  pending_.insert(id);
  id_out = id;
  return true;
}

bool Client::send_cancel(std::uint64_t id, std::string& error) {
  if (!socket_.valid()) {
    error = "not connected";
    return false;
  }
  // The caller is abandoning this request; bound the courtesy write by
  // the io stall timeout rather than the (often already expired)
  // request deadline.
  if (!write_frame(wire::encode_cancel_frame(id),
                   service::Deadline::in(options_.io_timeout), error)) {
    return false;
  }
  if (options_.metrics) options_.metrics->qos_cancels_sent.add();
  trace::emit_instant("net.cancel_sent", trace::Category::Qos);
  return true;
}

int Client::pump(std::chrono::milliseconds wait, std::string& error) {
  if (!socket_.valid()) {
    error = "not connected";
    return -1;
  }
  pollfd pfd{socket_.fd(), POLLIN, 0};
  const int ready = ::poll(&pfd, 1, static_cast<int>(wait.count()));
  if (ready < 0) {
    if (errno == EINTR) return 0;
    error = std::string("poll: ") + ::strerror(errno);
    disconnect();
    return -1;
  }
  if (ready == 0) return 0;

  const std::size_t before = completed_.size();
  if (!receive(error)) {
    disconnect();
    return -1;
  }
  return static_cast<int>(completed_.size() - before);
}

bool Client::take_response(std::uint64_t id, service::QueryResponse& out) {
  const auto it = completed_.find(id);
  if (it == completed_.end()) return false;
  out = std::move(it->second);
  completed_.erase(it);
  return true;
}

void Client::cancel(std::uint64_t id) {
  pending_.erase(id);
  completed_.erase(id);
}

bool Client::ping(std::chrono::milliseconds timeout, std::string& error) {
  if (!ensure_connected(error)) return false;
  const std::uint64_t id = next_id_++;
  const service::Deadline deadline = service::Deadline::in(timeout);
  if (!write_frame(wire::encode_ping_frame(id), deadline, error)) {
    return false;
  }
  while (!pongs_.count(id)) {
    if (deadline.expired()) {
      error = "ping timed out";
      return false;
    }
    if (pump(std::chrono::milliseconds(10), error) < 0) return false;
  }
  pongs_.erase(id);
  return true;
}

service::Status Client::negotiate() {
  std::string error;
  if (!ensure_connected(error)) return service::Status::unavailable(error);
  const std::uint64_t id = next_id_++;
  const service::Deadline deadline =
      service::Deadline::in(options_.io_timeout);
  hello_ack_.reset();
  if (!write_frame(wire::encode_hello_frame(id, wire::kMinProtocolVersion,
                                            wire::kProtocolVersion),
                   deadline, error)) {
    return service::Status::unavailable(error);
  }
  while (!hello_ack_ || hello_ack_->request_id != id) {
    if (deadline.expired()) {
      disconnect();
      return service::Status::unavailable("negotiation timed out");
    }
    if (pump(std::chrono::milliseconds(10), error) < 0) {
      return service::Status::unavailable(error);
    }
  }
  const wire::HelloAckFrame ack = *hello_ack_;
  hello_ack_.reset();
  if (!ack.status.ok()) return ack.status;
  if (ack.agreed_version != wire::kProtocolVersion) {
    disconnect();
    return service::Status::protocol_error(
        "server agreed to version " + std::to_string(ack.agreed_version) +
        ", outside the advertised range");
  }
  return service::Status::okay();
}

}  // namespace mpct::net
