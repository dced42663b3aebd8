#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace mpct::service {

/// Outcome category of a query.  The engine never throws across the
/// submit/execute boundary: every failure mode an operator must react to
/// differently gets its own code so callers can branch without parsing
/// message strings.
enum class StatusCode : int {
  Ok = 0,
  /// The bounded request queue was full; the request was *not* enqueued.
  /// This is the backpressure signal — retry later or shed load upstream.
  QueueFull = 1,
  /// The request's deadline had already passed when a worker picked it
  /// up (or when it was submitted).  The work was not performed.
  DeadlineExceeded = 2,
  /// ClassifyRequest over ADL text that did not parse; the message
  /// carries every parser diagnostic joined with "; ".
  ParseError = 3,
  /// Structurally invalid request (e.g. an empty cost sweep with a
  /// non-positive n, or a recommend floor above the maximum score).
  InvalidRequest = 4,
  /// The engine is shutting down and no longer accepts work.
  ShuttingDown = 5,
  /// An unexpected exception escaped the underlying library call; the
  /// message carries e.what().  Indicates a bug — please report it.
  InternalError = 6,
  /// The network client could not reach the server (connect/send/receive
  /// failure that survived every retry).  The request may or may not
  /// have executed remotely; all requests are idempotent, so resubmitting
  /// is always safe.
  Unavailable = 7,
  /// The peer sent bytes that do not decode to a valid frame.  Emitted
  /// by the wire layer (src/wire), never by the engine itself.
  ProtocolError = 8,
  /// Version negotiation failed: the client's advertised version range
  /// does not intersect what this server speaks (wire Hello/HelloAck).
  UnsupportedVersion = 9,
  /// Admission control shed this request: the service is past its
  /// pressure threshold for the request's priority class.  Distinct
  /// from QueueFull (a per-class subqueue overflowing) — Overloaded is
  /// a *policy* rejection and carries a retry-after hint that
  /// net::Client / ClusterClient honour in their backoff.
  Overloaded = 10,
  /// The request was cancelled server-side (wire CancelRequest) before
  /// it produced a result — typically a hedged duplicate whose sibling
  /// already won.  The work was dequeued or abandoned at a chunk
  /// boundary; no payload is attached.
  Cancelled = 11,
};

std::string_view to_string(StatusCode code);

/// Status of one query: a code plus a human-readable detail message
/// (empty on success).
struct Status {
  StatusCode code = StatusCode::Ok;
  std::string message;
  /// Overloaded only: how long the shedding server suggests waiting
  /// before a retry (0 = no hint).  Travels in the response payload's
  /// QoS tail; clients sleep max(backoff, hint).
  std::uint32_t retry_after_ms = 0;

  bool ok() const { return code == StatusCode::Ok; }

  static Status okay() { return {}; }
  static Status queue_full() {
    return {StatusCode::QueueFull, "bounded queue full; request rejected"};
  }
  static Status deadline_exceeded() {
    return {StatusCode::DeadlineExceeded, "deadline expired before execution"};
  }
  static Status parse_error(std::string message) {
    return {StatusCode::ParseError, std::move(message)};
  }
  static Status invalid_request(std::string message) {
    return {StatusCode::InvalidRequest, std::move(message)};
  }
  static Status shutting_down() {
    return {StatusCode::ShuttingDown, "engine is shutting down"};
  }
  static Status internal_error(std::string message) {
    return {StatusCode::InternalError, std::move(message)};
  }
  static Status unavailable(std::string message) {
    return {StatusCode::Unavailable, std::move(message)};
  }
  static Status protocol_error(std::string message) {
    return {StatusCode::ProtocolError, std::move(message)};
  }
  static Status unsupported_version(std::string message) {
    return {StatusCode::UnsupportedVersion, std::move(message)};
  }
  static Status overloaded(std::string message, std::uint32_t retry_after_ms) {
    return {StatusCode::Overloaded, std::move(message), retry_after_ms};
  }
  static Status cancelled() {
    return {StatusCode::Cancelled, "request cancelled by the client"};
  }

  /// "ok" or "queue-full: bounded queue full; request rejected".
  std::string to_string() const;

  friend bool operator==(const Status&, const Status&) = default;
};

}  // namespace mpct::service
