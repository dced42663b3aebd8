#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/frame_reader.hpp"
#include "net/socket.hpp"
#include "service/engine.hpp"
#include "wire/protocol.hpp"

namespace mpct::net {

/// Tuning knobs of a Client.
struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::chrono::milliseconds connect_timeout{2000};
  /// Longest the client waits for the socket to become readable/writable
  /// before declaring the attempt dead (per poll, while progress stalls).
  std::chrono::milliseconds io_timeout{10000};
  /// Reconnect-and-resend attempts after the first try.  Every request
  /// in the service API is idempotent (pure functions of the request +
  /// the engine's component library), so resending is always safe.
  int max_retries = 2;
  /// First retry backoff; doubles per retry.
  std::chrono::milliseconds initial_backoff{50};
  /// Optional registry for net_* counters (e.g. the engine's own, or a
  /// client-side one).  May be null.
  service::MetricsRegistry* metrics = nullptr;
  /// QoS class stamped on every request frame this client sends.
  /// nullopt lets the wire layer derive the request type's default
  /// class (point queries Interactive, grid work Batch); a replay soak
  /// sets Background so live traffic outranks it.
  std::optional<qos::PriorityClass> priority;
};

/// Blocking TCP client for a net::Server.
///
/// call() submits one request; call_batch() pipelines a whole batch on
/// one connection — every frame is written before responses are
/// awaited, and responses are matched to requests by id, so the server
/// completing them out of order is invisible to the caller.
///
/// Failure model (all failures are *typed*, never exceptions):
///  * Transport errors (connect refused, reset, EOF, undecodable
///    response bytes) are retried with exponential backoff, resending
///    only the still-unanswered requests; when retries are exhausted the
///    remaining slots get StatusCode::Unavailable.
///  * A deadline bounds the whole call: the remaining budget travels on
///    the wire (the server rejects late requests DeadlineExceeded), and
///    a locally-expired deadline yields DeadlineExceeded without I/O.
///  * Per-request server-side errors (QueueFull, ProtocolError, ...)
///    arrive as ordinary responses and are returned as-is — they are
///    answers, not transport failures, and are never retried.  The one
///    exception is StatusCode::Overloaded: an admission-control shed is
///    explicitly transient, so call()/call_batch() resend shed requests
///    within the retry budget, sleeping max(backoff, the server's
///    retry_after_ms hint) first.
///
/// Metrics accounting: net_requests_sent counts *logical* requests —
/// once per request handed to call()/call_batch(), never re-counted on
/// retry (retries tick net_retries; hedges issued by the cluster layer
/// tick net_hedges_sent there).
///
/// Besides the synchronous API there is a non-blocking primitive layer
/// (send_request / pump / take_response / cancel) used by
/// cluster::ClusterClient to hedge across connections: it needs to park
/// a request on one server, start the same request elsewhere, and
/// cancel whichever loses.  Use ONE style per client instance.
///
/// Not thread-safe: one Client per thread (they are cheap — one socket).
class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client() = default;

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Synchronous round trip for one request.  @p trace_id stamps the
  /// frame header's trace field (0 = derive one from the request id).
  service::QueryResponse call(
      service::Request request,
      service::Deadline deadline = service::Deadline::never(),
      std::uint64_t trace_id = 0);

  /// Pipelined round trip: element i of the result answers request i.
  std::vector<service::QueryResponse> call_batch(
      std::vector<service::Request> requests,
      service::Deadline deadline = service::Deadline::never(),
      std::uint64_t trace_id = 0);

  /// Hello/HelloAck version check: confirm the server speaks
  /// wire::kProtocolVersion.  Optional — frames are the same either way.
  /// Returns Ok, UnsupportedVersion (typed, from the server), Unavailable
  /// (transport), or ProtocolError (the server agreed to another
  /// version).
  service::Status negotiate();

  /// Liveness probe: Ping → Pong round trip within @p timeout.
  bool ping(std::chrono::milliseconds timeout, std::string& error);

  // --- Non-blocking primitive layer (cluster::ClusterClient) ---------

  /// Write one request frame (blocking until written or failed) and
  /// track its id; the response is collected later via pump() +
  /// take_response().  Does NOT count net_requests_sent — the caller
  /// owns logical-request accounting.  @p priority overrides
  /// options().priority for this one frame (hedges inherit the
  /// original request's class).
  bool send_request(const service::Request& request,
                    service::Deadline deadline, std::uint64_t trace_id,
                    std::uint64_t& id_out, std::string& error,
                    std::optional<qos::PriorityClass> priority = std::nullopt);

  /// Poll the socket for up to @p wait and read/decode once.  Returns
  /// the number of newly completed tracked requests, or -1 on transport
  /// error (the connection is reset; every tracked request is lost).
  int pump(std::chrono::milliseconds wait, std::string& error);

  /// Move request @p id's response out, if it has completed.
  bool take_response(std::uint64_t id, service::QueryResponse& out);

  /// Stop tracking @p id (hedge loser): a late response is dropped on
  /// arrival.  The server still executes it — requests are idempotent
  /// and its result may warm the server's cache.
  void cancel(std::uint64_t id);

  /// Ask the *server* to abandon request @p id too (wire CancelRequest).
  /// Fire-and-forget: the cancelled request's own response is the
  /// acknowledgement.  Counts qos_cancels_sent.  Callers usually pair
  /// this with cancel(id) to also drop the local tracking.
  bool send_cancel(std::uint64_t id, std::string& error);

  std::size_t pending_count() const { return pending_.size(); }

  /// Receive-buffer capacity held for a partial response frame; 0
  /// whenever no frame is half-read.
  std::size_t buffered_bytes() const { return reader_.held_bytes(); }

  bool connected() const { return socket_.valid(); }
  void disconnect();
  const ClientOptions& options() const { return options_; }

 private:
  /// One wire attempt over the current connection: send every request in
  /// @p unanswered, collect responses into @p responses.  Returns false
  /// on a transport failure (the caller decides whether to retry);
  /// indices answered before the failure keep their responses.
  bool attempt(const std::vector<service::Request>& requests,
               std::vector<std::size_t>& unanswered,
               std::vector<service::QueryResponse>& responses,
               service::Deadline deadline, std::uint64_t trace_id,
               std::string& error);
  bool ensure_connected(std::string& error);
  /// Blocking write of a whole frame (poll + send loop).  On failure the
  /// connection is reset.
  bool write_frame(const std::vector<std::uint8_t>& frame,
                   service::Deadline deadline, std::string& error);
  /// One read from the socket: each complete frame goes into
  /// completed_ (tracked ids only) / pongs_ / hello_ack_.  False (with
  /// @p error) when the stream is closed, failed or broken.
  bool receive(std::string& error);

  ClientOptions options_;
  Socket socket_;
  std::uint64_t next_id_ = 1;

  // Stream state (reset by disconnect()).
  FrameReader reader_;
  std::unordered_set<std::uint64_t> pending_;
  std::unordered_map<std::uint64_t, service::QueryResponse> completed_;
  std::unordered_set<std::uint64_t> pongs_;
  std::optional<wire::HelloAckFrame> hello_ack_;
};

}  // namespace mpct::net
