/// End-to-end tests of the TCP transport (src/net) over loopback: every
/// request type served over the wire is bit-for-bit equal to the inline
/// QueryEngine result, pipelined responses complete out of order keyed
/// by request id, deadlines travel on the wire and expire as typed
/// responses, backpressure surfaces as QueueFull frames, malformed
/// payloads as ProtocolError frames, and graceful shutdown drains
/// mid-traffic.  Raw-socket cases pin the receive path (frames split
/// across sends, frames larger than the read chunk), the write
/// watermark, and that connections hold buffers only while a frame is
/// in flight.  The multi-threaded cases run under TSan in CI.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "net/net.hpp"
#include "net/trace_stream.hpp"
#include "service/service.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"
#include "wire/wire.hpp"

namespace {

using namespace mpct;
using service::Request;
using service::QueryResponse;
using service::StatusCode;

Request classify_spec_request() {
  return service::ClassifyRequest::of(arch::surveyed_architectures()[2]);
}

Request classify_adl_request() {
  return service::ClassifyRequest::of_adl(
      arch::to_adl(*arch::find_architecture("MorphoSys")));
}

Request recommend_request() {
  service::RecommendRequest req;
  req.requirements.min_flexibility = 3;
  req.requirements.needs_pe_exchange = true;
  req.top_k = 5;
  return req;
}

Request cost_request() {
  service::CostRequest req;
  req.target = arch::surveyed_architectures()[4];
  req.n_sweep = {4, 8, 16};
  return req;
}

Request sweep_request() {
  service::SweepRequest req;
  req.grid.base.min_flexibility = 2;
  req.grid.n_values = {4, 16};
  req.grid.lut_budgets = {256, 1024};
  req.grid.objectives = {explore::Requirements::Objective::MinConfigBits,
                         explore::Requirements::Objective::MinArea};
  return req;
}

Request fault_sweep_request() {
  service::FaultSweepRequest req;
  MachineClass mc;
  mc.granularity = Granularity::IpDp;
  mc.ips = Multiplicity::Many;
  mc.dps = Multiplicity::Many;
  mc.set_switch(ConnectivityRole::IpDp, SwitchKind::Crossbar);
  mc.set_switch(ConnectivityRole::DpDm, SwitchKind::Crossbar);
  req.spec.machine = mc;
  req.spec.bindings.n = 4;
  req.spec.fault_rates = {0.0, 0.1};
  req.spec.trials_per_rate = 4;
  req.spec.seed = 42;
  return req;
}

std::vector<Request> all_requests() {
  std::vector<Request> requests;
  requests.push_back(classify_spec_request());
  requests.push_back(classify_adl_request());
  requests.push_back(recommend_request());
  requests.push_back(cost_request());
  requests.push_back(sweep_request());
  requests.push_back(fault_sweep_request());
  return requests;
}

net::ClientOptions client_options(std::uint16_t port,
                                  service::MetricsRegistry* metrics =
                                      nullptr) {
  net::ClientOptions options;
  options.port = port;
  options.metrics = metrics;
  return options;
}

/// Bit-for-bit response parity: payload and status must match exactly;
/// latency / cache_hit are measurements, not results.
void expect_payload_parity(const QueryResponse& wire,
                           const QueryResponse& inline_ref) {
  EXPECT_EQ(wire.status, inline_ref.status);
  ASSERT_EQ(wire.payload == nullptr, inline_ref.payload == nullptr);
  if (wire.payload) {
    EXPECT_TRUE(*wire.payload == *inline_ref.payload);
  }
}

/// The largest grid the benchmark sends: 64 n values x 11 LUT budgets x
/// 2 objectives = 1408 cells, whose response frame is larger than one
/// read chunk.  @p n0 moves the grid so distinct calls get distinct keys.
Request large_sweep_request(std::int64_t n0 = 2) {
  service::SweepRequest req;
  req.grid.base.min_flexibility = 1;
  for (std::int64_t i = 0; i < 64; ++i) req.grid.n_values.push_back(n0 + 2 * i);
  for (int i = 0; i < 11; ++i) req.grid.lut_budgets.push_back(64 << i);
  req.grid.objectives = {explore::Requirements::Objective::MinConfigBits,
                         explore::Requirements::Objective::MinArea};
  return req;
}

/// Poll @p done every millisecond for up to @p limit.
template <typename Done>
bool wait_until(Done done,
                std::chrono::milliseconds limit = std::chrono::seconds(5)) {
  const auto until = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A raw client socket for tests that decide exactly how request bytes
/// reach the server and when answers are read.
class RawPeer {
 public:
  explicit RawPeer(std::uint16_t port) {
    std::string error;
    sock_ = net::connect_tcp("127.0.0.1", port, 2000, error);
  }
  bool valid() const { return sock_.valid(); }

  /// Write all of @p size bytes, as few send() calls as the socket allows.
  bool send_all(const std::uint8_t* data, std::size_t size) {
    std::size_t sent = 0;
    while (sent < size) {
      pollfd pfd{sock_.fd(), POLLOUT, 0};
      if (::poll(&pfd, 1, 2000) <= 0) return false;
      const ssize_t n =
          ::send(sock_.fd(), data + sent, size - sent, MSG_NOSIGNAL);
      if (n < 0 && errno != EAGAIN && errno != EINTR) return false;
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    return true;
  }
  bool send_all(const std::vector<std::uint8_t>& bytes) {
    return send_all(bytes.data(), bytes.size());
  }

  /// Read until @p count more complete frames arrived; stops early when
  /// nothing arrives for 5 s or the server closes the connection.
  std::vector<std::vector<std::uint8_t>> read_frames(std::size_t count) {
    std::vector<std::vector<std::uint8_t>> frames;
    while (frames.size() < count) {
      const wire::FrameScan scan = wire::scan_frame(in_.data(), in_.size());
      if (scan.state == wire::FrameScan::State::Ready) {
        frames.emplace_back(in_.begin(), in_.begin() + scan.frame_size);
        in_.erase(in_.begin(), in_.begin() + scan.frame_size);
        continue;
      }
      if (scan.state == wire::FrameScan::State::Bad) break;
      pollfd pfd{sock_.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 5000) <= 0) break;
      std::uint8_t buf[16384];
      const ssize_t n = ::recv(sock_.fd(), buf, sizeof(buf), 0);
      if (n > 0) {
        in_.insert(in_.end(), buf, buf + n);
      } else if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
        break;
      }
    }
    return frames;
  }

  /// True when no byte arrives within @p wait.
  bool quiet_for(std::chrono::milliseconds wait) {
    pollfd pfd{sock_.fd(), POLLIN, 0};
    return in_.empty() &&
           ::poll(&pfd, 1, static_cast<int>(wait.count())) == 0;
  }

  /// True when the server closes the connection within @p wait without
  /// sending a byte first.
  bool closed_within(std::chrono::milliseconds wait) {
    pollfd pfd{sock_.fd(), POLLIN, 0};
    if (!in_.empty() ||
        ::poll(&pfd, 1, static_cast<int>(wait.count())) <= 0) {
      return false;
    }
    std::uint8_t byte = 0;
    const ssize_t n = ::recv(sock_.fd(), &byte, 1, 0);
    return n == 0 || (n < 0 && errno == ECONNRESET);
  }

 private:
  net::Socket sock_;
  std::vector<std::uint8_t> in_;
};

/// Raw frame exchange for tests that need byte-level control: write
/// @p out, then read one complete frame.  Empty result = connection
/// closed / timed out.
std::vector<std::uint8_t> raw_exchange(std::uint16_t port,
                                       const std::vector<std::uint8_t>& out) {
  RawPeer peer(port);
  if (!peer.valid() || !peer.send_all(out)) return {};
  auto frames = peer.read_frames(1);
  if (frames.empty()) return {};
  return std::move(frames.front());
}

/// Decode every frame as a response and check it answers the request
/// with its id in @p requests exactly as inline execution does, each id
/// exactly once.
void expect_answers_match_inline(
    const std::vector<std::vector<std::uint8_t>>& frames,
    const std::vector<std::pair<std::uint64_t, Request>>& requests) {
  service::EngineOptions ref_options;
  ref_options.worker_threads = 0;
  service::QueryEngine reference(ref_options);
  ASSERT_EQ(frames.size(), requests.size());
  std::set<std::uint64_t> answered;
  for (const auto& frame : frames) {
    const auto decoded =
        wire::decode_response_frame(frame.data(), frame.size());
    ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
    const std::uint64_t id = decoded.value->request_id;
    EXPECT_TRUE(answered.insert(id).second) << "id " << id << " twice";
    const auto it = std::find_if(requests.begin(), requests.end(),
                                 [&](const auto& r) { return r.first == id; });
    ASSERT_NE(it, requests.end()) << "unknown id " << id;
    ASSERT_TRUE(decoded.value->response.ok())
        << decoded.value->response.status.to_string();
    expect_payload_parity(decoded.value->response,
                          reference.execute(it->second));
  }
}

// ---------------------------------------------------------------------------

TEST(NetServer, EveryRequestTypeServedOverLoopbackMatchesInline) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  // The reference engine is configured identically; responses are pure
  // functions of (request, component library), so the payloads must be
  // bit-identical however many threads and sockets sit in between.
  service::EngineOptions ref_options;
  ref_options.worker_threads = 0;
  service::QueryEngine reference(ref_options);

  net::Client client(client_options(server.port()));
  for (const Request& request : all_requests()) {
    const QueryResponse wire_response = client.call(request);
    const QueryResponse inline_response = reference.execute(request);
    ASSERT_TRUE(wire_response.ok())
        << wire_response.status.to_string();
    expect_payload_parity(wire_response, inline_response);
  }
  server.stop();
  EXPECT_GE(engine.metrics().net_frames_in.value(), 6u);
  EXPECT_GE(engine.metrics().net_frames_out.value(), 6u);
  EXPECT_GT(engine.metrics().net_bytes_in.value(), 0u);
  EXPECT_GT(engine.metrics().net_bytes_out.value(), 0u);
  EXPECT_EQ(engine.metrics().net_connections_opened.value(), 1u);
}

TEST(NetServer, PipelinedBatchCompletesOutOfOrderByRequestId) {
  service::EngineOptions options;
  options.worker_threads = 4;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  // One slow Monte-Carlo sweep pipelined ahead of many fast classifies:
  // workers finish the classifies first, so the server writes their
  // responses before the sweep's — the client must reassemble by id.
  std::vector<Request> batch;
  batch.push_back(fault_sweep_request());
  const auto& specs = arch::surveyed_architectures();
  for (std::size_t i = 0; i < 8; ++i) {
    batch.push_back(service::ClassifyRequest::of(specs[i % specs.size()]));
  }

  service::EngineOptions ref_options;
  ref_options.worker_threads = 0;
  service::QueryEngine reference(ref_options);

  net::Client client(client_options(server.port()));
  const auto responses = client.call_batch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << i << ": "
                                   << responses[i].status.to_string();
    expect_payload_parity(responses[i], reference.execute(batch[i]));
  }
}

TEST(NetServer, WireDeadlineExpiresAsTypedResponse) {
  // Workers deliberately not started: the request must age out in the
  // queue, and the 1 ms deadline that travelled on the wire must come
  // back as a DeadlineExceeded *response*, not a hang or a cut stream.
  service::EngineOptions options;
  options.worker_threads = 1;
  options.start_workers = false;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  const auto frame =
      wire::encode_request_frame(7, classify_spec_request(), 1 /*ms*/);
  std::thread starter([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    engine.start();
  });
  const auto reply = raw_exchange(server.port(), frame);
  starter.join();
  ASSERT_FALSE(reply.empty());
  const auto decoded = wire::decode_response_frame(reply.data(), reply.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
  EXPECT_EQ(decoded.value->request_id, 7u);
  EXPECT_EQ(decoded.value->response.status.code,
            StatusCode::DeadlineExceeded);
}

TEST(NetServer, BackpressureSurfacesAsQueueFullFrames) {
  // queue_capacity 1 with parked workers: of a pipelined burst, exactly
  // one request is queued and the rest must bounce as typed QueueFull
  // responses on the wire — never silent drops, never blocked reads.
  service::EngineOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 1;
  options.start_workers = false;
  options.enable_cache = false;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  const auto& specs = arch::surveyed_architectures();
  std::vector<Request> batch;
  for (std::size_t i = 0; i < 6; ++i) {
    batch.push_back(service::ClassifyRequest::of(specs[i]));
  }
  std::thread starter([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    engine.start();
  });
  net::Client client(client_options(server.port()));
  const auto responses = client.call_batch(batch);
  starter.join();

  ASSERT_EQ(responses.size(), batch.size());
  std::size_t ok = 0;
  std::size_t queue_full = 0;
  for (const auto& response : responses) {
    if (response.ok()) ++ok;
    if (response.status.code == StatusCode::QueueFull) ++queue_full;
  }
  EXPECT_EQ(ok + queue_full, batch.size());
  EXPECT_GE(ok, 1u);
  EXPECT_GE(queue_full, 1u);
}

TEST(NetServer, MalformedPayloadGetsProtocolErrorAndStreamSurvives) {
  service::EngineOptions options;
  options.worker_threads = 1;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  // Well-framed garbage: valid header, payload of 0xFF.  The server
  // must answer ProtocolError (keyed by our id), not kill the stream.
  auto bad = wire::encode_request_frame(55, classify_spec_request());
  for (std::size_t i = wire::kHeaderSize; i < bad.size(); ++i) bad[i] = 0xFF;
  auto reply = raw_exchange(server.port(), bad);
  ASSERT_FALSE(reply.empty());
  auto decoded = wire::decode_response_frame(reply.data(), reply.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value->request_id, 55u);
  EXPECT_EQ(decoded.value->response.status.code, StatusCode::ProtocolError);
  EXPECT_GE(engine.metrics().net_decode_errors.value(), 1u);

  // A broken *header* is different: framing is unrecoverable, so the
  // server closes the connection instead of answering.
  std::vector<std::uint8_t> junk(64, 'J');
  EXPECT_TRUE(raw_exchange(server.port(), junk).empty());
}

TEST(NetServer, GracefulStopDrainsMidTraffic) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  std::atomic<bool> done{false};
  std::atomic<int> answered{0};
  std::thread traffic([&] {
    net::ClientOptions copts = client_options(server.port());
    copts.max_retries = 0;  // a cut connection at stop() is expected
    net::Client client(copts);
    const auto& specs = arch::surveyed_architectures();
    std::size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      const QueryResponse response =
          client.call(service::ClassifyRequest::of(specs[i++ % specs.size()]));
      // Every outcome must be typed: a real answer while the server is
      // up, Unavailable once it went away — never a hang or a crash.
      if (response.ok()) {
        answered.fetch_add(1, std::memory_order_relaxed);
      } else {
        EXPECT_EQ(response.status.code, StatusCode::Unavailable);
      }
    }
  });

  // Let some traffic flow, then stop mid-stream.
  while (answered.load(std::memory_order_acquire) < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  done.store(true, std::memory_order_release);
  traffic.join();
  EXPECT_GE(answered.load(), 5);
  EXPECT_FALSE(server.running());
  EXPECT_EQ(engine.metrics().net_active_connections.value(), 0);
}

TEST(NetClient, UnreachableServerYieldsUnavailableAfterRetries) {
  // Grab an ephemeral port, then close the listener: nobody is home.
  service::EngineOptions eopts;
  eopts.worker_threads = 0;
  service::QueryEngine probe_engine(eopts);
  std::uint16_t dead_port = 0;
  {
    net::Server probe(probe_engine);
    ASSERT_TRUE(probe.start());
    dead_port = probe.port();
    probe.stop();
  }

  service::MetricsRegistry metrics;
  net::ClientOptions options = client_options(dead_port, &metrics);
  options.max_retries = 2;
  options.initial_backoff = std::chrono::milliseconds(1);
  options.connect_timeout = std::chrono::milliseconds(200);
  net::Client client(options);
  const QueryResponse response = client.call(classify_spec_request());
  EXPECT_EQ(response.status.code, StatusCode::Unavailable);
  EXPECT_FALSE(response.status.message.empty());
  EXPECT_EQ(metrics.net_retries.value(), 2u);
  // Retries re-send the *same* logical request: it is counted once, not
  // once per wire attempt (hedges would tick net_hedges_sent instead).
  EXPECT_EQ(metrics.net_requests_sent.value(), 1u);
  EXPECT_EQ(metrics.net_hedges_sent.value(), 0u);
}

TEST(NetClient, RequestAccountingCountsLogicalRequestsOnce) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  service::MetricsRegistry metrics;
  net::Client client(client_options(server.port(), &metrics));
  const auto responses = client.call_batch(all_requests());
  for (const auto& response : responses) ASSERT_TRUE(response.ok());
  EXPECT_EQ(metrics.net_requests_sent.value(), all_requests().size());
  EXPECT_EQ(metrics.net_retries.value(), 0u);
  EXPECT_EQ(metrics.net_hedges_sent.value(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol version negotiation (wire v2)

TEST(NetVersion, NegotiateAgreesOnTheHighestCommonVersion) {
  service::EngineOptions options;
  options.worker_threads = 1;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  net::Client client(client_options(server.port()));
  const auto status = client.negotiate();
  ASSERT_TRUE(status.ok()) << status.to_string();
  // The Hello the client sends is acked with this build's version.
  const auto reply = raw_exchange(
      server.port(), wire::encode_hello_frame(3, wire::kMinProtocolVersion,
                                              wire::kProtocolVersion));
  const auto ack = wire::decode_hello_ack_frame(reply.data(), reply.size());
  ASSERT_TRUE(ack.ok()) << ack.error.to_string();
  EXPECT_EQ(ack.value->agreed_version, wire::kProtocolVersion);
  // The negotiated connection still serves traffic.
  EXPECT_TRUE(client.call(classify_spec_request()).ok());
}

TEST(NetVersion, OldV1ClientIsClosedAndCounted) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  // A request as an old v1 binary framed it: the 20-byte header (no
  // trace id) and a payload without the trailing priority byte.
  const Request request = classify_spec_request();
  const auto current = wire::encode_request_frame(7, request);
  const std::uint32_t payload_size =
      static_cast<std::uint32_t>(current.size() - wire::kHeaderSize - 1);
  std::vector<std::uint8_t> v1_frame(current.begin(), current.begin() + 20);
  v1_frame[4] = 1;  // version, little-endian
  v1_frame[5] = 0;
  std::memcpy(v1_frame.data() + 16, &payload_size, sizeof(payload_size));
  v1_frame.insert(v1_frame.end(), current.begin() + wire::kHeaderSize,
                  current.end() - 1);

  // Another version is a broken stream: no answer, the connection is
  // closed, and the decode error is counted once.
  const std::uint64_t errors_before =
      engine.metrics().net_decode_errors.value();
  RawPeer v1_peer(server.port());
  ASSERT_TRUE(v1_peer.valid());
  ASSERT_TRUE(v1_peer.send_all(v1_frame));
  EXPECT_TRUE(v1_peer.closed_within(std::chrono::seconds(5)));
  EXPECT_EQ(engine.metrics().net_decode_errors.value(), errors_before + 1);

  // The server keeps serving negotiated clients.
  service::EngineOptions ref_options;
  ref_options.worker_threads = 0;
  service::QueryEngine reference(ref_options);
  net::Client client(client_options(server.port()));
  const auto status = client.negotiate();
  ASSERT_TRUE(status.ok()) << status.to_string();
  const QueryResponse wire_response = client.call(request);
  ASSERT_TRUE(wire_response.ok()) << wire_response.status.to_string();
  expect_payload_parity(wire_response, reference.execute(request));
}

TEST(NetVersion, RequestWithoutItsPriorityByteGetsProtocolErrorInBand) {
  service::EngineOptions options;
  options.worker_threads = 1;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  // A request from before the QoS extension: the current header, with a
  // payload length consistent with a payload one byte short.  The
  // framing is intact, so the server answers in-band and keeps reading.
  const Request request = classify_spec_request();
  std::vector<std::uint8_t> short_frame =
      wire::encode_request_frame(8, request);
  short_frame.pop_back();
  const std::uint32_t payload_size =
      static_cast<std::uint32_t>(short_frame.size() - wire::kHeaderSize);
  std::memcpy(short_frame.data() + 16, &payload_size, sizeof(payload_size));

  const std::uint64_t errors_before =
      engine.metrics().net_decode_errors.value();
  RawPeer peer(server.port());
  ASSERT_TRUE(peer.valid());
  ASSERT_TRUE(peer.send_all(short_frame));
  auto frames = peer.read_frames(1);
  ASSERT_EQ(frames.size(), 1u);
  const auto rejected =
      wire::decode_response_frame(frames[0].data(), frames[0].size());
  ASSERT_TRUE(rejected.ok()) << rejected.error.to_string();
  EXPECT_EQ(rejected.value->request_id, 8u);
  EXPECT_EQ(rejected.value->response.status.code, StatusCode::ProtocolError);
  EXPECT_EQ(engine.metrics().net_decode_errors.value(), errors_before + 1);

  // The same stream still serves a whole frame.
  ASSERT_TRUE(peer.send_all(wire::encode_request_frame(9, request)));
  frames = peer.read_frames(1);
  expect_answers_match_inline(frames, {{9, request}});
}

TEST(NetVersion, ImpossibleRangeGetsTypedUnsupportedVersion) {
  service::EngineOptions options;
  options.worker_threads = 1;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  // A client speaking only versions we do not — a future one, or an old
  // v1-only one: the server must answer a typed UnsupportedVersion
  // HelloAck, not cut the stream.
  const std::pair<std::uint16_t, std::uint16_t> ranges[] = {{99, 104}, {1, 1}};
  for (const auto& [min_version, max_version] : ranges) {
    const auto hello = wire::encode_hello_frame(4, min_version, max_version);
    const auto reply = raw_exchange(server.port(), hello);
    ASSERT_FALSE(reply.empty()) << min_version << ".." << max_version;
    const auto ack = wire::decode_hello_ack_frame(reply.data(), reply.size());
    ASSERT_TRUE(ack.ok()) << ack.error.to_string();
    EXPECT_EQ(ack.value->request_id, 4u);
    EXPECT_EQ(ack.value->status.code, StatusCode::UnsupportedVersion)
        << min_version << ".." << max_version;
  }
}

TEST(NetVersion, PingPongRoundTrips) {
  service::EngineOptions options;
  options.worker_threads = 0;  // pings never touch the engine
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  net::Client client(client_options(server.port()));
  std::string error;
  EXPECT_TRUE(client.ping(std::chrono::milliseconds(2000), error)) << error;
}

// ---------------------------------------------------------------------------
// Streaming flight-recorder export (net::TraceStreamer -> span_sink)

/// The Tracer is process-wide; these tests bracket themselves with a
/// full reset so earlier suites' buffers contribute nothing.
void reset_tracer() {
  trace::Tracer::instance().disable();
  trace::Tracer::instance().set_capacity_per_thread(
      trace::Tracer::kDefaultCapacity);
  trace::Tracer::instance().clear();
}

/// End-to-end assembly parity: spans recorded in-process must arrive at
/// the collector over the wire bit-identical to the inline snapshot
/// view of the same trace.  Runs under TSan in CI.
TEST(NetTrace, StreamerShipsSpansToTheCollectorWithParity) {
  reset_tracer();
  service::EngineOptions eopts;
  eopts.worker_threads = 0;
  service::QueryEngine engine(eopts);

  trace::Collector collector;
  std::mutex received_mutex;
  std::vector<trace::ExportSpan> received;
  net::ServerOptions sopts;
  sopts.span_sink = [&](wire::SpanBatchFrame frame) {
    std::lock_guard<std::mutex> lock(received_mutex);
    collector.ingest(frame.batch, trace::Tracer::instance().now_ns());
    for (const trace::ExportSpan& span : frame.batch.spans) {
      received.push_back(span);
    }
  };
  net::Server server(engine, sopts);
  ASSERT_TRUE(server.start()) << server.error();

  constexpr std::uint64_t kTrace = 0x7ace;
  trace::Tracer::instance().enable();
  {
    trace::TraceContextScope context(kTrace);
    {
      trace::ScopedSpan a("parity.a", trace::Category::Core, "i", 1);
      trace::ScopedSpan b("parity.b", trace::Category::Cost);
    }
    trace::emit_instant("parity.mark", trace::Category::Mark);
  }
  // Inline reference BEFORE the streamer runs: snapshot() does not move
  // the export cursor, so the streamer still ships the same spans.
  std::vector<trace::ExportSpan> expected;
  for (const trace::Span& span : trace::Tracer::instance().snapshot().spans) {
    if (span.trace_id == kTrace) {
      expected.push_back(trace::ExportSpan::of(span));
    }
  }
  ASSERT_EQ(expected.size(), 3u);

  net::TraceStreamerOptions topts;
  topts.port = server.port();
  topts.node = "parity-node";
  topts.interval = std::chrono::milliseconds(5);
  net::TraceStreamer streamer(topts);
  ASSERT_TRUE(streamer.start()) << streamer.error();

  // Wait for the wire copies (the enabled tracer also records server
  // loop spans with trace id 0 — the filter below ignores them).
  std::vector<trace::ExportSpan> wire_spans;
  for (int round = 0; round < 400; ++round) {
    {
      std::lock_guard<std::mutex> lock(received_mutex);
      wire_spans.clear();
      for (const trace::ExportSpan& span : received) {
        if (span.trace_id == kTrace) wire_spans.push_back(span);
      }
    }
    if (wire_spans.size() >= expected.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  streamer.stop();
  server.stop();
  trace::Tracer::instance().disable();

  const auto by_id = [](const trace::ExportSpan& a,
                        const trace::ExportSpan& b) { return a.id < b.id; };
  std::sort(wire_spans.begin(), wire_spans.end(), by_id);
  std::sort(expected.begin(), expected.end(), by_id);
  EXPECT_EQ(wire_spans, expected);  // bit-for-bit across the wire

  EXPECT_EQ(streamer.spans_dropped(), 0u);
  EXPECT_EQ(streamer.spans_sampled_out(), 0u);
  EXPECT_GE(streamer.batches_sent(), 1u);
  EXPECT_GE(collector.stats().batches, 1u);
  EXPECT_EQ(collector.node_count(kTrace), 1u);
  const std::string timeline = collector.assemble(kTrace);
  EXPECT_NE(timeline.find("parity.a"), std::string::npos);
  EXPECT_NE(timeline.find("\"name\":\"parity-node\""), std::string::npos);
  reset_tracer();
}

/// Drop accounting under a stalled collector: a listener that never
/// accepts cannot empty the outbox, so once the back-pressure bound is
/// hit every batch is shed whole and counted — memory stays bounded and
/// the hot path never blocks.
TEST(NetTrace, StalledCollectorShedsBatchesAndCountsEveryDrop) {
  reset_tracer();
  // A raw listener nobody ever accepts from: the streamer's connect
  // succeeds (kernel backlog) but nothing drains the pipe.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);

  service::MetricsRegistry metrics;
  net::TraceStreamerOptions topts;
  topts.port = ntohs(addr.sin_port);
  topts.node = "stalled";
  topts.interval = std::chrono::milliseconds(2);
  // A bound smaller than any span-bearing frame: every non-empty batch
  // sheds deterministically, whatever the kernel buffers absorb.
  topts.max_outbox_bytes = 256;
  topts.metrics = &metrics;
  net::TraceStreamer streamer(topts);
  ASSERT_TRUE(streamer.start()) << streamer.error();

  trace::Tracer::instance().enable();
  constexpr int kRounds = 20;
  constexpr int kPerRound = 1024;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kPerRound; ++i) {
      trace::ScopedSpan span("stall.span", trace::Category::Core);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  trace::Tracer::instance().disable();
  streamer.stop();  // final pump drains whatever the rings still hold

  // Every recorded span is accounted for exactly once — exported (a
  // rare tiny batch can slip under the bound), shed with its batch, or
  // lost to ring wrap — never silently vanished.
  EXPECT_GT(streamer.spans_dropped(), 0u);
  EXPECT_GT(streamer.batches_dropped(), 0u);
  EXPECT_EQ(streamer.spans_exported() + streamer.spans_dropped(),
            static_cast<std::uint64_t>(kRounds * kPerRound));
  EXPECT_EQ(streamer.spans_sampled_out(), 0u);
  // The Prometheus mirror carries the same totals.
  EXPECT_EQ(metrics.trace_spans_dropped.value(), streamer.spans_dropped());
  EXPECT_EQ(metrics.trace_batches_dropped.value(),
            streamer.batches_dropped());
  ::close(listener);
  reset_tracer();
}

TEST(NetClient, DeadlineAlreadyExpiredShortCircuitsLocally) {
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  net::Client client(client_options(server.port()));
  const QueryResponse response = client.call(
      classify_spec_request(),
      service::Deadline::at_time(service::Clock::now() -
                                 std::chrono::seconds(1)));
  EXPECT_EQ(response.status.code, StatusCode::DeadlineExceeded);
  // Nothing was sent: the server saw no frames from this client.
  EXPECT_EQ(engine.metrics().net_frames_in.value(), 0u);
}

// --- Receive paths and held buffers ---------------------------------------

TEST(NetFrameReader, HoldsBytesOnlyWhileAFrameIsPartial) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Socket reader_end(fds[0]);
  net::Socket writer_end(fds[1]);
  ASSERT_TRUE(net::set_nonblocking(reader_end.fd()));
  net::FrameReader reader;
  std::vector<std::vector<std::uint8_t>> delivered;
  const auto read_once = [&] {
    return reader.read(reader_end.fd(), [&](const wire::FrameScan& scan,
                                            const std::uint8_t* frame) {
      delivered.emplace_back(frame, frame + scan.frame_size);
      return true;
    });
  };

  EXPECT_EQ(read_once().status, net::FrameReader::Status::Again);
  const auto frame = wire::encode_request_frame(9, cost_request());
  const std::size_t half = frame.size() / 2;
  ASSERT_EQ(::send(writer_end.fd(), frame.data(), half, 0),
            static_cast<ssize_t>(half));
  const auto first = read_once();
  EXPECT_EQ(first.status, net::FrameReader::Status::Read);
  EXPECT_EQ(first.bytes, half);
  EXPECT_TRUE(delivered.empty());
  EXPECT_GE(reader.held_bytes(), half);

  // The rest of the frame plus a whole second one: both are delivered,
  // in order, and the tail storage is released.
  std::vector<std::uint8_t> rest(frame.begin() + half, frame.end());
  rest.insert(rest.end(), frame.begin(), frame.end());
  ASSERT_EQ(::send(writer_end.fd(), rest.data(), rest.size(), 0),
            static_cast<ssize_t>(rest.size()));
  EXPECT_EQ(read_once().status, net::FrameReader::Status::Read);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], frame);
  EXPECT_EQ(delivered[1], frame);
  EXPECT_EQ(reader.held_bytes(), 0u);

  // reset() drops a held tail; a broken header ends the stream.
  ASSERT_EQ(::send(writer_end.fd(), frame.data(), half, 0),
            static_cast<ssize_t>(half));
  EXPECT_EQ(read_once().status, net::FrameReader::Status::Read);
  EXPECT_GT(reader.held_bytes(), 0u);
  reader.reset();
  EXPECT_EQ(reader.held_bytes(), 0u);
  const std::vector<std::uint8_t> junk(64, 'J');
  ASSERT_EQ(::send(writer_end.fd(), junk.data(), junk.size(), 0), 64);
  EXPECT_EQ(read_once().status, net::FrameReader::Status::BadStream);
  EXPECT_EQ(reader.held_bytes(), 0u);

  writer_end.close();
  EXPECT_EQ(read_once().status, net::FrameReader::Status::Closed);
}

TEST(NetReceive, RequestSentOneBytePerSendIsAnsweredOnce) {
  service::EngineOptions options;
  options.worker_threads = 1;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  RawPeer peer(server.port());
  ASSERT_TRUE(peer.valid());
  const Request request = classify_adl_request();
  const auto frame = wire::encode_request_frame(11, request);
  for (std::uint8_t byte : frame) {
    ASSERT_TRUE(peer.send_all(&byte, 1));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  expect_answers_match_inline(peer.read_frames(1), {{11, request}});
  EXPECT_TRUE(peer.quiet_for(std::chrono::milliseconds(100)));
  EXPECT_EQ(engine.metrics().net_frames_in.value(), 1u);
}

TEST(NetReceive, WholeFramesAndAHalfInOneSendThenTheRest) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();
  const service::MetricsRegistry& metrics = engine.metrics();

  const std::vector<std::pair<std::uint64_t, Request>> requests = {
      {1, classify_spec_request()},
      {2, cost_request()},
      {3, recommend_request()},
      {4, sweep_request()}};
  std::vector<std::uint8_t> head;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto frame =
        wire::encode_request_frame(requests[i].first, requests[i].second);
    head.insert(head.end(), frame.begin(), frame.end());
  }
  const auto fourth =
      wire::encode_request_frame(requests[3].first, requests[3].second);
  const std::size_t half = fourth.size() / 2;
  head.insert(head.end(), fourth.begin(), fourth.begin() + half);

  RawPeer peer(server.port());
  ASSERT_TRUE(peer.valid());
  ASSERT_TRUE(peer.send_all(head));
  auto frames = peer.read_frames(3);
  ASSERT_EQ(frames.size(), 3u);
  // The three answers went out after the read that left the half frame
  // behind, so the server now holds exactly that partial request.
  EXPECT_GE(metrics.net_buffered_bytes.value(),
            static_cast<std::int64_t>(half));
  EXPECT_TRUE(peer.quiet_for(std::chrono::milliseconds(50)));

  ASSERT_TRUE(peer.send_all(fourth.data() + half, fourth.size() - half));
  auto last = peer.read_frames(1);
  frames.insert(frames.end(), last.begin(), last.end());
  expect_answers_match_inline(frames, requests);
  EXPECT_TRUE(peer.quiet_for(std::chrono::milliseconds(100)));
  EXPECT_TRUE(
      wait_until([&] { return metrics.net_buffered_bytes.value() == 0; }));
}

TEST(NetReceive, RequestLargerThanTheReadChunkIsAnswered) {
  service::EngineOptions options;
  options.worker_threads = 1;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  // An ADL comment pads the request past one read chunk.
  const Request request = service::ClassifyRequest::of_adl(
      arch::to_adl(*arch::find_architecture("MorphoSys")) + "\n# " +
      std::string(3 * net::FrameReader::kReadChunk / 2, 'x') + "\n");
  const auto frame = wire::encode_request_frame(21, request);
  ASSERT_GT(frame.size(), net::FrameReader::kReadChunk);

  RawPeer peer(server.port());
  ASSERT_TRUE(peer.valid());
  ASSERT_TRUE(peer.send_all(frame));
  expect_answers_match_inline(peer.read_frames(1), {{21, request}});
  EXPECT_TRUE(peer.quiet_for(std::chrono::milliseconds(100)));
  EXPECT_TRUE(wait_until(
      [&] { return engine.metrics().net_buffered_bytes.value() == 0; }));
}

TEST(NetClient, ResponseLargerThanTheReadChunkArrivesThroughPump) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  service::EngineOptions ref_options;
  ref_options.worker_threads = 0;
  service::QueryEngine reference(ref_options);
  const Request request = large_sweep_request();
  const QueryResponse inline_response = reference.execute(request);
  ASSERT_TRUE(inline_response.ok());
  ASSERT_GT(wire::encode_response_frame(1, inline_response).size(),
            net::FrameReader::kReadChunk);

  // The primitive layer, as cluster::ClusterClient drives it.
  net::Client client(client_options(server.port()));
  std::uint64_t id = 0;
  std::string error;
  ASSERT_TRUE(client.send_request(request, service::Deadline::never(), 0, id,
                                  error))
      << error;
  QueryResponse response;
  ASSERT_TRUE(wait_until([&] {
    EXPECT_GE(client.pump(std::chrono::milliseconds(10), error), 0) << error;
    return client.take_response(id, response);
  }));
  ASSERT_TRUE(response.ok()) << response.status.to_string();
  expect_payload_parity(response, inline_response);
  EXPECT_EQ(client.buffered_bytes(), 0u);
  EXPECT_EQ(client.pending_count(), 0u);
}

TEST(NetServer, WriteWatermarkPausesReadingUntilTheClientDrains) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  net::ServerOptions server_options;
  server_options.write_high_watermark = 256 * 1024;
  net::Server server(engine, server_options);
  ASSERT_TRUE(server.start()) << server.error();
  const service::MetricsRegistry& metrics = engine.metrics();

  // Pipeline large-answer requests one frame at a time without reading.
  // Once the kernel's socket buffers are full, the answers pile up in
  // the server's write buffer until it passes the watermark, and the
  // server stops taking requests: a sent frame is no longer submitted.
  RawPeer peer(server.port());
  ASSERT_TRUE(peer.valid());
  const Request request = large_sweep_request();
  std::vector<std::pair<std::uint64_t, Request>> sent;
  bool stalled = false;
  while (!stalled && sent.size() < 400) {
    const std::uint64_t id = sent.size() + 1;
    ASSERT_TRUE(peer.send_all(wire::encode_request_frame(id, request)));
    sent.emplace_back(id, request);
    stalled = !wait_until([&] { return metrics.submitted.value() == id; },
                          std::chrono::milliseconds(500));
  }
  ASSERT_TRUE(stalled) << "the server never stopped reading";
  for (int extra = 0; extra < 4; ++extra) {
    const std::uint64_t id = sent.size() + 1;
    ASSERT_TRUE(peer.send_all(wire::encode_request_frame(id, request)));
    sent.emplace_back(id, request);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t plateau = metrics.submitted.value();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(metrics.submitted.value(), plateau);
  EXPECT_LT(plateau, sent.size());
  EXPECT_GE(metrics.net_buffered_bytes.value(),
            static_cast<std::int64_t>(server_options.write_high_watermark));

  // Reading drains the backlog, the server resumes, and every request
  // is answered exactly once.
  expect_answers_match_inline(peer.read_frames(sent.size()), sent);
  EXPECT_TRUE(peer.quiet_for(std::chrono::milliseconds(100)));
  EXPECT_EQ(metrics.submitted.value(), sent.size());
  EXPECT_TRUE(
      wait_until([&] { return metrics.net_buffered_bytes.value() == 0; }));
}

TEST(NetServer, BufferedBytesReturnToZeroAfterAPipelinedBurst) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  std::vector<Request> batch;
  for (std::int64_t i = 0; i < 8; ++i) {
    batch.push_back(large_sweep_request(2 + 1000 * i));
  }
  net::Client client(client_options(server.port()));
  const auto responses = client.call_batch(batch);
  service::EngineOptions ref_options;
  ref_options.worker_threads = 0;
  service::QueryEngine reference(ref_options);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status.to_string();
    expect_payload_parity(responses[i], reference.execute(batch[i]));
  }

  // No partial frame and no unsent byte anywhere, connection still open:
  // neither side holds buffer memory.
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.buffered_bytes(), 0u);
  EXPECT_TRUE(wait_until(
      [&] { return engine.metrics().net_buffered_bytes.value() == 0; }));
  EXPECT_EQ(server.connection_count(), 1u);
}

}  // namespace
