/// Deterministic versioned binary serialisation (src/wire): frame
/// scanning, round trips for every Request / Response variant —
/// bit-identical, enforced against the engine's canonical fingerprint
/// machinery — golden digests that pin the exact bytes of every frame
/// kind, and the hardened decoder's typed error taxonomy (truncation,
/// bad magic, version skew, trailing bytes, enum ranges).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arch/registry.hpp"
#include "service/service.hpp"
#include "wire/wire.hpp"

namespace {

using namespace mpct;
using namespace mpct::wire;

using service::Request;
using service::QueryResponse;

// ---------------------------------------------------------------------------
// Representative requests, one per RequestType.

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
  req.requirements.paradigm = MachineType::DataFlow;
  req.requirements.needs_pe_exchange = true;
  req.requirements.n = 32;
  req.requirements.lut_budget = 2048;
  req.requirements.objective = explore::Requirements::Objective::MinArea;
  req.top_k = 5;
  return req;
}

Request cost_class_request() {
  service::CostRequest req;
  MachineClass mc;
  mc.granularity = Granularity::IpDp;
  mc.ips = Multiplicity::Many;
  mc.dps = Multiplicity::Many;
  mc.set_switch(ConnectivityRole::IpDp, SwitchKind::Crossbar);
  mc.set_switch(ConnectivityRole::DpDm, SwitchKind::Crossbar);
  req.target = mc;
  req.options.n = 8;
  req.options.include_ip_dp_switch = true;
  req.n_sweep = {4, 8, 16};
  return req;
}

Request cost_spec_request() {
  service::CostRequest req;
  req.target = arch::surveyed_architectures()[4];
  req.options.v = 128;
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

Request sweep_chunk_request() {
  service::SweepChunkRequest req;
  req.grid = std::get<service::SweepRequest>(sweep_request()).grid;
  req.begin = 1;
  req.end = 5;
  return req;
}

Request fault_chunk_request() {
  service::FaultChunkRequest req;
  req.spec = std::get<service::FaultSweepRequest>(fault_sweep_request()).spec;
  req.begin = 2;
  req.end = 6;
  return req;
}

std::vector<Request> all_requests() {
  std::vector<Request> requests;
  requests.push_back(classify_spec_request());
  requests.push_back(classify_adl_request());
  requests.push_back(recommend_request());
  requests.push_back(cost_class_request());
  requests.push_back(cost_spec_request());
  requests.push_back(sweep_request());
  requests.push_back(fault_sweep_request());
  requests.push_back(sweep_chunk_request());
  requests.push_back(fault_chunk_request());
  return requests;
}

// ---------------------------------------------------------------------------
// Frame scanning

TEST(FrameScan, IncompleteHeaderNeedsMore) {
  const auto frame = encode_request_frame(1, classify_spec_request());
  for (std::size_t len = 0; len < kHeaderSize; ++len) {
    const FrameScan scan = scan_frame(frame.data(), len);
    EXPECT_EQ(scan.state, FrameScan::State::NeedMore) << "len=" << len;
  }
}

TEST(FrameScan, IncompletePayloadNeedsMore) {
  const auto frame = encode_request_frame(1, classify_spec_request());
  const FrameScan scan = scan_frame(frame.data(), frame.size() - 1);
  EXPECT_EQ(scan.state, FrameScan::State::NeedMore);
}

TEST(FrameScan, CompleteFrameIsReady) {
  const auto frame = encode_request_frame(77, classify_spec_request(), 1234);
  const FrameScan scan = scan_frame(frame.data(), frame.size());
  ASSERT_EQ(scan.state, FrameScan::State::Ready);
  EXPECT_EQ(scan.header.kind, FrameKind::Request);
  EXPECT_EQ(scan.header.request_id, 77u);
  EXPECT_EQ(scan.frame_size, frame.size());
}

TEST(FrameScan, BadMagicIsRejectedEvenFromAPrefix) {
  // A garbage stream must be rejected as soon as the magic mismatches —
  // even before a whole header arrives — so a reader can never be
  // stalled on NeedMore by junk.
  const std::uint8_t junk[] = {'J', 'U', 'N', 'K'};
  for (std::size_t len = 1; len <= 4; ++len) {
    const FrameScan scan = scan_frame(junk, len);
    EXPECT_EQ(scan.state, FrameScan::State::Bad) << "len=" << len;
    EXPECT_EQ(scan.error.code, WireErrorCode::BadMagic);
  }
}

/// The typed error of a failed decode, nullopt when it succeeded.
template <typename T>
std::optional<WireErrorCode> error_of(const DecodeResult<T>& decoded) {
  if (decoded.ok()) return std::nullopt;
  return decoded.error.code;
}

TEST(FrameScan, VersionSkewIsTyped) {
  // Every frame kind the encoder emits, stamped with a version other
  // than kProtocolVersion, is a broken stream: scan_frame and the
  // kind's decoder (ping and pong have none) both say so, typed.
  using Decode = std::optional<WireErrorCode> (*)(const std::uint8_t*,
                                                  std::size_t);
  QueryResponse response;
  response.status = service::Status::okay();
  const struct {
    const char* name;
    std::vector<std::uint8_t> frame;
    Decode decode;
  } cases[] = {
      {"request", encode_request_frame(1, classify_spec_request()),
       [](const std::uint8_t* d, std::size_t n) {
         return error_of(decode_request_frame(d, n));
       }},
      {"response", encode_response_frame(2, response),
       [](const std::uint8_t* d, std::size_t n) {
         return error_of(decode_response_frame(d, n));
       }},
      {"ping", encode_ping_frame(3), nullptr},
      {"pong", encode_pong_frame(4), nullptr},
      {"hello", encode_hello_frame(5, kMinProtocolVersion, kProtocolVersion),
       [](const std::uint8_t* d, std::size_t n) {
         return error_of(decode_hello_frame(d, n));
       }},
      {"hello ack",
       encode_hello_ack_frame(6, service::Status::okay(), kProtocolVersion),
       [](const std::uint8_t* d, std::size_t n) {
         return error_of(decode_hello_ack_frame(d, n));
       }},
      {"cancel", encode_cancel_frame(7),
       [](const std::uint8_t* d, std::size_t n) {
         return error_of(decode_cancel_frame(d, n));
       }},
      {"span batch", encode_span_batch_frame(8, trace::SpanBatch{}),
       [](const std::uint8_t* d, std::size_t n) {
         return error_of(decode_span_batch_frame(d, n));
       }},
  };
  for (const auto& c : cases) {
    for (const std::uint16_t version :
         {std::uint16_t{0}, std::uint16_t{1}, std::uint16_t{3},
          std::uint16_t{0xFFFF}}) {
      std::vector<std::uint8_t> frame = c.frame;
      frame[4] = static_cast<std::uint8_t>(version & 0xFF);  // little-endian
      frame[5] = static_cast<std::uint8_t>(version >> 8);
      const FrameScan scan = scan_frame(frame.data(), frame.size());
      EXPECT_EQ(scan.state, FrameScan::State::Bad) << c.name << " v" << version;
      EXPECT_EQ(scan.error.code, WireErrorCode::UnsupportedVersion)
          << c.name << " v" << version;
      if (c.decode != nullptr) {
        EXPECT_EQ(c.decode(frame.data(), frame.size()),
                  WireErrorCode::UnsupportedVersion)
            << c.name << " v" << version;
      }
    }
  }
}

TEST(FrameScan, BadKindAndReservedAreTyped) {
  auto frame = encode_request_frame(1, classify_spec_request());
  frame[6] = 9;  // frame kind
  EXPECT_EQ(scan_frame(frame.data(), frame.size()).error.code,
            WireErrorCode::BadFrameKind);
  frame[6] = 1;
  frame[7] = 1;  // reserved must be zero
  EXPECT_EQ(scan_frame(frame.data(), frame.size()).error.code,
            WireErrorCode::Malformed);
}

TEST(FrameScan, OversizedPayloadIsRejectedBeforeBuffering) {
  auto frame = encode_request_frame(1, classify_spec_request());
  const std::uint32_t huge = (16u << 20) + 1;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));
  const FrameScan scan = scan_frame(frame.data(), frame.size());
  ASSERT_EQ(scan.state, FrameScan::State::Bad);
  EXPECT_EQ(scan.error.code, WireErrorCode::Oversized);
}

// ---------------------------------------------------------------------------
// Request round trips

TEST(RequestRoundTrip, EveryRequestTypeIsBitIdentical) {
  std::uint64_t id = 100;
  for (const Request& request : all_requests()) {
    const auto frame = encode_request_frame(id, request, 5000);
    const auto decoded = decode_request_frame(frame.data(), frame.size());
    ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
    EXPECT_EQ(decoded.value->request_id, id);
    EXPECT_EQ(decoded.value->deadline_ms, 5000u);
    // The canonical fingerprint walks every response-relevant field
    // (including IEEE double bit patterns), so equality here means the
    // decoded request is response-equivalent to the original.
    EXPECT_EQ(service::fingerprint(decoded.value->request),
              service::fingerprint(request));
    EXPECT_EQ(decoded.value->request.index(), request.index());
    ++id;
  }
}

TEST(RequestRoundTrip, ReEncodingIsDeterministic) {
  for (const Request& request : all_requests()) {
    const auto first = encode_request_frame(9, request, 0);
    const auto decoded = decode_request_frame(first.data(), first.size());
    ASSERT_TRUE(decoded.ok());
    const auto second =
        encode_request_frame(9, decoded.value->request, 0);
    EXPECT_EQ(first, second);  // byte-for-byte stable across a round trip
  }
}

// ---------------------------------------------------------------------------
// Response round trips

void expect_equal_responses(const QueryResponse& a, const QueryResponse& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.cache_hit, b.cache_hit);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  ASSERT_EQ(a.payload == nullptr, b.payload == nullptr);
  if (a.payload) {
    EXPECT_TRUE(*a.payload == *b.payload);
  }
}

TEST(ResponseRoundTrip, EveryPayloadAlternativeIsBitIdentical) {
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);
  std::uint64_t id = 1;
  for (const Request& request : all_requests()) {
    const QueryResponse response = engine.execute(request);
    ASSERT_TRUE(response.ok());
    const auto frame = encode_response_frame(id, response);
    const auto decoded = decode_response_frame(frame.data(), frame.size());
    ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
    EXPECT_EQ(decoded.value->request_id, id);
    expect_equal_responses(decoded.value->response, response);
    ++id;
  }
}

TEST(ResponseRoundTrip, CacheHitFlagAndLatencySurvive) {
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);
  engine.execute(classify_spec_request());
  const QueryResponse hit = engine.execute(classify_spec_request());
  ASSERT_TRUE(hit.cache_hit);
  const auto frame = encode_response_frame(3, hit);
  const auto decoded = decode_response_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok());
  expect_equal_responses(decoded.value->response, hit);
}

TEST(ResponseRoundTrip, EveryStatusCodeSurvivesIncludingNetOnes) {
  using service::Status;
  const Status statuses[] = {
      Status::okay(),
      Status::queue_full(),
      Status::deadline_exceeded(),
      Status::parse_error("line 3: expected '}'"),
      Status::invalid_request("empty sweep"),
      Status::shutting_down(),
      Status::internal_error("boom"),
      Status::unavailable("connect refused"),
      Status::protocol_error("truncated: payload"),
  };
  for (const Status& status : statuses) {
    QueryResponse response;
    response.status = status;
    response.latency = std::chrono::nanoseconds(987654321);
    const auto frame = encode_response_frame(8, response);
    const auto decoded = decode_response_frame(frame.data(), frame.size());
    ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
    expect_equal_responses(decoded.value->response, response);
  }
}

// ---------------------------------------------------------------------------
// Golden frames: the exact bytes of every request type, every response
// payload alternative, a 1408-cell sweep
// answer, a 1008-cell curve answer and every control frame, pinned by
// FNV-1a digest.  An encoder change that alters one byte fails here, and
// so does one that leaves a frame with spare capacity.

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

Request simulate_request() {
  service::SimulateRequest req;
  MachineClass mc;
  mc.granularity = Granularity::IpDp;
  mc.ips = Multiplicity::Many;
  mc.dps = Multiplicity::Many;
  mc.set_switch(ConnectivityRole::IpDp, SwitchKind::Direct);
  mc.set_switch(ConnectivityRole::IpIm, SwitchKind::Direct);
  mc.set_switch(ConnectivityRole::DpDm, SwitchKind::Crossbar);
  mc.set_switch(ConnectivityRole::DpDp, SwitchKind::Crossbar);
  req.target = mc;
  req.options.width = 4;
  req.faults.add_noc_link(0, 1);
  req.seed = 7;
  return req;
}

/// 64 n values x 11 LUT budgets x 2 objectives = 1408 cells.
Request large_sweep_request() {
  service::SweepRequest req;
  req.grid.base.min_flexibility = 1;
  for (int i = 0; i < 64; ++i) req.grid.n_values.push_back(4 + 2 * i);
  for (int i = 0; i < 11; ++i) req.grid.lut_budgets.push_back(96 << i);
  req.grid.objectives = {explore::Requirements::Objective::MinConfigBits,
                         explore::Requirements::Objective::MinArea};
  return req;
}

/// 21 fault rates x 48 trials = 1008 cells.
Request large_curve_request() {
  service::FaultSweepRequest req =
      std::get<service::FaultSweepRequest>(fault_sweep_request());
  req.spec.fault_rates.clear();
  for (int i = 0; i < 21; ++i) req.spec.fault_rates.push_back(0.02 * (i + 1));
  req.spec.trials_per_rate = 48;
  return req;
}

trace::SpanBatch golden_span_batch() {
  trace::SpanBatch batch;
  batch.node = "backend-0";
  batch.send_ns = 123456789;
  batch.dropped = 17;
  trace::ExportSpan span;
  span.name = "cluster.call";
  span.arg_name = "trace_id";
  span.arg = 42;
  span.id = 7;
  span.parent = 3;
  span.trace_id = 0x7ace0001;
  span.thread = 2;
  span.category = trace::Category::Cluster;
  span.start_ns = 1000;
  span.dur_ns = 250;
  batch.spans.push_back(span);
  return batch;
}

/// Every golden frame, keyed by a readable label.
std::map<std::string, std::vector<std::uint8_t>> golden_frames() {
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);

  std::vector<Request> requests = all_requests();
  requests.push_back(simulate_request());
  requests.push_back(large_sweep_request());
  requests.push_back(large_curve_request());
  std::vector<QueryResponse> responses;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryResponse response = engine.execute(requests[i]);
    EXPECT_TRUE(response.ok()) << i << ": " << response.status.to_string();
    // Pin the fields the engine measures rather than computes.
    response.cache_hit = i % 2 == 1;
    response.latency = std::chrono::nanoseconds(1000 + i);
    responses.push_back(std::move(response));
  }
  QueryResponse overloaded;
  overloaded.status = service::Status::overloaded("shed", 40);
  overloaded.latency = std::chrono::nanoseconds(77);
  overloaded.sampled = true;
  responses.push_back(std::move(overloaded));

  std::map<std::string, std::vector<std::uint8_t>> frames;
  // The " v2" suffix names the wire version the bytes were recorded at.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    frames["request " + std::to_string(i) + " v2"] = encode_request_frame(
        100 + i, requests[i], static_cast<std::uint32_t>(250 * i),
        kProtocolVersion, 0x7ace0000 + i);
  }
  for (std::size_t i = 0; i < responses.size(); ++i) {
    frames["response " + std::to_string(i) + " v2"] =
        encode_response_frame(100 + i, responses[i], 0x7ace0000 + i);
  }
  frames["request priority"] =
      encode_request_frame(5, recommend_request(), 9, kProtocolVersion, 0,
                           qos::PriorityClass::Background);
  frames["ping"] = encode_ping_frame(21);
  frames["pong"] = encode_pong_frame(22);
  frames["hello"] = encode_hello_frame(23, 1, kProtocolVersion);
  frames["hello ack"] =
      encode_hello_ack_frame(24, service::Status::okay(), kProtocolVersion);
  frames["hello nack"] = encode_hello_ack_frame(
      25, service::Status::unsupported_version("need v9"), kProtocolVersion);
  frames["cancel"] = encode_cancel_frame(26, 0x7ace0002);
  frames["span batch"] = encode_span_batch_frame(27, golden_span_batch());
  return frames;
}

TEST(GoldenFrames, EveryFrameKeepsItsBytes) {
  const std::map<std::string, std::uint64_t> expected = {
      {"cancel", 0x03fd8fa65d5bc551ull},
      {"hello", 0x7dafae30fece02a0ull},
      {"hello ack", 0x08ecba031416dfe3ull},
      {"hello nack", 0x30456f8c3cab2494ull},
      {"ping", 0x9fd3fd1a45a1ca63ull},
      {"pong", 0xed380735cb69913full},
      {"request 0 v2", 0x372855a1cc49e62bull},
      {"request 1 v2", 0x93686b48e3ce28feull},
      {"request 10 v2", 0x1e9c064ded38cf1eull},
      {"request 11 v2", 0x3c04367eb64aa0baull},
      {"request 2 v2", 0xc1064ce35a8e2a4full},
      {"request 3 v2", 0x715dc90553242451ull},
      {"request 4 v2", 0x8e2a352b40ff1cf9ull},
      {"request 5 v2", 0xd4c2a72b0a5326b3ull},
      {"request 6 v2", 0x3726b1486b6bbad3ull},
      {"request 7 v2", 0x4e6198973d7d5977ull},
      {"request 8 v2", 0xab357d1fff111d07ull},
      {"request 9 v2", 0x519b97d2acf3b971ull},
      {"request priority", 0x7bab30f3505a6fcaull},
      {"response 0 v2", 0x5fde9ec54401d686ull},
      {"response 1 v2", 0xf45fb6e76a6aa875ull},
      {"response 10 v2", 0x8c86a4c3efcd1effull},
      {"response 11 v2", 0x1d4871b6f30408cdull},
      {"response 12 v2", 0x4f0177f13803a486ull},
      {"response 2 v2", 0x9a295a6e6194220aull},
      {"response 3 v2", 0xf5cd97f04186a024ull},
      {"response 4 v2", 0xba33bfabcc6f9dd5ull},
      {"response 5 v2", 0x4492c69d81ec85a0ull},
      {"response 6 v2", 0x158530a4720b63e2ull},
      {"response 7 v2", 0xfc1fd70e4b87aab7ull},
      {"response 8 v2", 0xec80c7515c5b19c4ull},
      {"response 9 v2", 0xe729b6d54d23ec3dull},
      {"span batch", 0xe4cc6c7cdfa29f4bull},
  };
  const auto frames = golden_frames();
  for (const auto& [label, frame] : frames) {
    const auto want = expected.find(label);
    ASSERT_NE(want, expected.end()) << "no golden digest for " << label;
    EXPECT_EQ(fnv1a(frame), want->second)
        << label << ": digest 0x" << std::hex << fnv1a(frame);
    // Built once at its final size: no regrowth slack rides along.
    EXPECT_EQ(frame.capacity(), frame.size()) << label;
  }
  EXPECT_EQ(frames.size(), expected.size());
}

// ---------------------------------------------------------------------------
// Hardened decoding: typed errors, never UB

TEST(DecodeErrors, TruncatedPayloadIsTyped) {
  const auto frame = encode_request_frame(1, recommend_request());
  // Chop the payload but lie about nothing: decode sees a frame whose
  // size is smaller than the header announces.
  const auto decoded =
      decode_request_frame(frame.data(), frame.size() - 3);
  EXPECT_FALSE(decoded.ok());
}

TEST(DecodeErrors, TrailingBytesAreTyped) {
  auto frame = encode_request_frame(1, recommend_request());
  // Grow the payload and fix up the announced length so framing is
  // consistent but the codec has bytes left over.
  frame.push_back(0);
  const std::uint32_t announced =
      static_cast<std::uint32_t>(frame.size() - kHeaderSize);
  std::memcpy(frame.data() + 16, &announced, sizeof(announced));
  const auto decoded = decode_request_frame(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error.code, WireErrorCode::TrailingData);
}

TEST(DecodeErrors, OutOfRangeEnumIsMalformed) {
  auto frame = encode_request_frame(1, classify_spec_request());
  // Payload byte layout: u32 deadline_ms, then the u8 RequestType tag.
  frame[kHeaderSize + 4] = 250;
  const auto decoded = decode_request_frame(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error.code, WireErrorCode::Malformed);
}

TEST(DecodeErrors, WrongFrameKindIsTyped) {
  QueryResponse response;
  response.status = service::Status::okay();
  const auto frame = encode_response_frame(1, response);
  const auto decoded = decode_request_frame(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error.code, WireErrorCode::BadFrameKind);

  const auto req_frame = encode_request_frame(1, recommend_request());
  const auto as_response =
      decode_response_frame(req_frame.data(), req_frame.size());
  ASSERT_FALSE(as_response.ok());
  EXPECT_EQ(as_response.error.code, WireErrorCode::BadFrameKind);
}

TEST(DecodeErrors, ImplausibleLengthPrefixIsMalformedNotOom) {
  // A recommend-response frame whose element count claims more entries
  // than the payload could possibly hold must be rejected by the length
  // plausibility bound — before any allocation is attempted.
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);
  const QueryResponse response = engine.execute(recommend_request());
  ASSERT_TRUE(response.ok());
  auto frame = encode_response_frame(1, response);
  // Find the recommendation-count u32: it follows status (i32 + str),
  // cache_hit (u8), latency (i64) and the payload index (u8).  Status
  // message is empty here, so the offset is fixed.
  const std::size_t count_offset = kHeaderSize + 4 + 4 + 1 + 8 + 1;
  const std::uint32_t absurd = 0x7FFFFFFF;
  std::memcpy(frame.data() + count_offset, &absurd, sizeof(absurd));
  const auto decoded = decode_response_frame(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error.code, WireErrorCode::Malformed);
}

TEST(DecodeErrors, ErrorsRenderReadably) {
  WireError error{WireErrorCode::Truncated, "payload ends early"};
  EXPECT_EQ(error.to_string(), "truncated: payload ends early");
  EXPECT_EQ(to_string(WireErrorCode::UnsupportedVersion),
            "unsupported-version");
}

// ---------------------------------------------------------------------------
// Protocol v2: the one header, trace ids, control frames, and the
// hard reject of every other version.

TEST(ProtocolV2, TraceIdRidesTheV2HeaderBothWays) {
  const std::uint64_t trace_id = 0xFEEDFACE12345678ull;
  const auto frame = encode_request_frame(9, recommend_request(), 0,
                                          kProtocolVersion, trace_id);
  const FrameScan scan = scan_frame(frame.data(), frame.size());
  ASSERT_EQ(scan.state, FrameScan::State::Ready);
  EXPECT_EQ(scan.header.trace_id, trace_id);
  const auto decoded = decode_request_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value->trace_id, trace_id);

  QueryResponse response;
  response.status = service::Status::okay();
  const auto reply = encode_response_frame(9, response, trace_id);
  const auto reply_decoded = decode_response_frame(reply.data(), reply.size());
  ASSERT_TRUE(reply_decoded.ok());
  EXPECT_EQ(reply_decoded.value->trace_id, trace_id);
}

TEST(ProtocolV2, ChunkRequestsAreRejectedOnV1Frames) {
  // A frame stamped v1 is a broken stream whatever it carries; the
  // chunk request types (which no v1 peer could ever have sent) decode
  // only at the current version.
  for (const Request& request :
       {sweep_chunk_request(), fault_chunk_request()}) {
    const auto v1_frame = encode_request_frame(3, request, 0, /*version=*/1);
    const auto decoded =
        decode_request_frame(v1_frame.data(), v1_frame.size());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error.code, WireErrorCode::UnsupportedVersion);

    const auto v2_frame = encode_request_frame(3, request, 0, /*version=*/2);
    EXPECT_TRUE(
        decode_request_frame(v2_frame.data(), v2_frame.size()).ok());
  }
}

TEST(ProtocolV2, PingPongFramesScanAsHeaderOnlyFrames) {
  for (const auto& frame : {encode_ping_frame(21), encode_pong_frame(21)}) {
    const FrameScan scan = scan_frame(frame.data(), frame.size());
    ASSERT_EQ(scan.state, FrameScan::State::Ready);
    EXPECT_EQ(scan.header.request_id, 21u);
    EXPECT_EQ(scan.header.payload_size, 0u);
  }
  EXPECT_EQ(scan_frame(encode_ping_frame(1).data(),
                       encode_ping_frame(1).size())
                .header.kind,
            FrameKind::Ping);
  EXPECT_EQ(scan_frame(encode_pong_frame(1).data(),
                       encode_pong_frame(1).size())
                .header.kind,
            FrameKind::Pong);
}

TEST(ProtocolV2, HelloHandshakeRoundTripsAtTheOneHeader) {
  // Hello/HelloAck travel with the same 28-byte header as every other
  // frame; the payload is the advertised [min, max] range.
  const auto hello = encode_hello_frame(31, 1, kProtocolVersion);
  const FrameScan scan = scan_frame(hello.data(), hello.size());
  ASSERT_EQ(scan.state, FrameScan::State::Ready);
  EXPECT_EQ(scan.frame_size, kHeaderSize + 4);
  EXPECT_EQ(scan.header.kind, FrameKind::Hello);
  const auto decoded = decode_hello_frame(hello.data(), hello.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
  EXPECT_EQ(decoded.value->request_id, 31u);
  EXPECT_EQ(decoded.value->min_version, 1u);
  EXPECT_EQ(decoded.value->max_version, kProtocolVersion);

  const auto ack =
      encode_hello_ack_frame(31, service::Status::okay(), kProtocolVersion);
  const auto ack_decoded = decode_hello_ack_frame(ack.data(), ack.size());
  ASSERT_TRUE(ack_decoded.ok()) << ack_decoded.error.to_string();
  EXPECT_EQ(ack_decoded.value->request_id, 31u);
  EXPECT_TRUE(ack_decoded.value->status.ok());
  EXPECT_EQ(ack_decoded.value->agreed_version, kProtocolVersion);
}

TEST(ProtocolV2, NegotiateVersionPicksTheHighestCommonVersion) {
  // There is one version: a range either holds it or cannot be served.
  EXPECT_EQ(kMinProtocolVersion, kProtocolVersion);
  EXPECT_EQ(negotiate_version(1, kProtocolVersion), kProtocolVersion);
  EXPECT_EQ(negotiate_version(1, 1), std::nullopt);  // old v1-only client
  EXPECT_EQ(negotiate_version(2, 2), 2);
  EXPECT_EQ(negotiate_version(0, 0xFFFF), kProtocolVersion);
  // A client entirely above what we speak cannot be served.
  EXPECT_EQ(negotiate_version(kProtocolVersion + 1, kProtocolVersion + 5),
            std::nullopt);
}

}  // namespace
