/// Randomised property sweeps: 1000 machine structures drawn from a
/// seeded generator, checked against the library's core invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/classifier.hpp"
#include "core/comparison.hpp"
#include "core/flexibility.hpp"
#include "core/flynn.hpp"
#include "core/taxonomy_table.hpp"
#include "cost/area_model.hpp"
#include "cost/config_bits.hpp"
#include "fault/fault.hpp"
#include "interconnect/traffic.hpp"
#include "service/service.hpp"
#include "trace/export.hpp"
#include "wire/wire.hpp"

namespace mpct {
namespace {

using interconnect::Rng;

MachineClass random_class(Rng& rng) {
  MachineClass mc;
  mc.granularity =
      rng.next_below(8) == 0 ? Granularity::Lut : Granularity::IpDp;
  mc.ips = static_cast<Multiplicity>(rng.next_below(4));
  mc.dps = static_cast<Multiplicity>(rng.next_below(4));
  for (ConnectivityRole role : kAllConnectivityRoles) {
    mc.set_switch(role, static_cast<SwitchKind>(rng.next_below(3)));
  }
  return mc;
}

TEST(Fuzz, ClassifierNeverCrashesAndRoundTrips) {
  Rng rng(2012);
  int classified = 0;
  for (int i = 0; i < 1000; ++i) {
    const MachineClass mc = random_class(rng);
    const Classification result = classify(mc);
    if (!result.ok()) {
      EXPECT_FALSE(result.note.empty()) << to_string(mc);
      continue;
    }
    ++classified;
    // The name decodes to a canonical class that classifies to itself.
    const auto canonical = canonical_class(*result.name);
    ASSERT_TRUE(canonical.has_value()) << to_string(mc);
    const Classification again = classify(*canonical);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again.name, *result.name) << to_string(mc);
  }
  // The generator should hit plenty of classifiable shapes.
  EXPECT_GT(classified, 200);
}

TEST(Fuzz, FlexibilityBoundsAndBreakdownConsistency) {
  Rng rng(88);
  for (int i = 0; i < 1000; ++i) {
    const MachineClass mc = random_class(rng);
    const FlexibilityBreakdown b = flexibility(mc);
    EXPECT_GE(b.total(), 0);
    EXPECT_LE(b.total(), 8);  // USP is the ceiling
    EXPECT_EQ(b.total(), b.many_ips + b.many_dps + b.crossbar_switches +
                             b.variability_bonus);
    EXPECT_LE(b.crossbar_switches, 5);
  }
}

TEST(Fuzz, SubtypeEncodesSwitchKindsExactly) {
  // For every classifiable coarse structure, the canonical class decoded
  // from its name agrees on the crossbar-ness of every column the
  // sub-type numeral encodes (all except IP-IP, where any connectivity
  // marks the class spatial whether or not it is a full crossbar).
  Rng rng(404);
  for (int i = 0; i < 1000; ++i) {
    const MachineClass mc = random_class(rng);
    const Classification result = classify(mc);
    if (!result.ok()) continue;
    if (mc.granularity == Granularity::Lut) continue;  // USP normalises
    const MachineClass canonical = *canonical_class(*result.name);
    // Which columns the family's numeral encodes: the DP-side pair for
    // DMP/IAP, all four for IMP/ISP; uni-processors encode none.
    std::vector<ConnectivityRole> encoded;
    if (result.name->machine_type == MachineType::InstructionFlow &&
        (result.name->processing_type == ProcessingType::MultiProcessor ||
         result.name->processing_type ==
             ProcessingType::SpatialProcessor)) {
      encoded = {ConnectivityRole::IpDp, ConnectivityRole::IpIm,
                 ConnectivityRole::DpDm, ConnectivityRole::DpDp};
    } else if (result.name->subtype > 0) {
      encoded = {ConnectivityRole::DpDm, ConnectivityRole::DpDp};
    }
    for (ConnectivityRole role : encoded) {
      EXPECT_EQ(is_flexible_switch(mc.switch_at(role)),
                is_flexible_switch(canonical.switch_at(role)))
          << to_string(mc) << " role " << to_string(role);
    }
  }
}

TEST(Fuzz, MorphPartialOrderProperties) {
  // Reflexivity and transitivity over the canonical classes (sampled
  // pairs/triples).
  std::vector<TaxonomicName> names;
  for (const TaxonomyEntry& row : extended_taxonomy()) {
    if (row.name) names.push_back(*row.name);
  }
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const TaxonomicName& a = names[rng.next_below(names.size())];
    const TaxonomicName& b = names[rng.next_below(names.size())];
    const TaxonomicName& c = names[rng.next_below(names.size())];
    EXPECT_TRUE(can_morph_into(a, a));
    if (can_morph_into(a, b) && can_morph_into(b, c)) {
      EXPECT_TRUE(can_morph_into(a, c))
          << to_string(a) << " -> " << to_string(b) << " -> "
          << to_string(c);
    }
  }
}

TEST(Fuzz, CostModelsAreFiniteAndNonNegative) {
  const cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  Rng rng(5150);
  for (int i = 0; i < 500; ++i) {
    const MachineClass mc = random_class(rng);
    cost::EstimateOptions options;
    options.n = 1 + static_cast<std::int64_t>(rng.next_below(64));
    options.v = 1 + static_cast<std::int64_t>(rng.next_below(1024));
    const auto area = cost::estimate_area(mc, lib, options);
    EXPECT_GE(area.total_kge(), 0);
    EXPECT_TRUE(std::isfinite(area.total_kge()));
    const auto bits = cost::estimate_config_bits(mc, lib, options);
    EXPECT_GE(bits.total(), 0);
    EXPECT_GE(bits.total(), bits.switch_bits());
  }
}

TEST(Fuzz, FlynnProjectionAgreesWithClassifier) {
  Rng rng(1966);
  for (int i = 0; i < 1000; ++i) {
    const MachineClass mc = random_class(rng);
    const auto flynn = flynn_class(mc);
    const Classification result = classify(mc);
    if (!result.ok()) continue;
    switch (result.name->machine_type) {
      case MachineType::DataFlow:
      case MachineType::UniversalFlow:
        EXPECT_EQ(flynn, std::nullopt);
        break;
      case MachineType::InstructionFlow:
        ASSERT_TRUE(flynn.has_value());
        switch (result.name->processing_type) {
          case ProcessingType::UniProcessor:
            EXPECT_EQ(*flynn, FlynnClass::SISD);
            break;
          case ProcessingType::ArrayProcessor:
            EXPECT_EQ(*flynn, FlynnClass::SIMD);
            break;
          default:
            EXPECT_EQ(*flynn, FlynnClass::MIMD);
        }
        break;
    }
  }
}

TEST(Fuzz, FaultSetApplicationNeverCrashes) {
  // Random structures x random fault sets (sampled and hand-scattered,
  // including out-of-range component indices): degrade() must always
  // come back with a valid classification or a well-typed error, keep
  // every fraction in range, and never gain flexibility.
  Rng rng(31337);
  const cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  for (int i = 0; i < 300; ++i) {
    const MachineClass mc = random_class(rng);
    cost::EstimateOptions bindings;
    bindings.n = 1 + static_cast<std::int64_t>(rng.next_below(8));
    bindings.v = 1 + static_cast<std::int64_t>(rng.next_below(32));
    const fault::FabricShape shape = fault::FabricShape::of(mc, bindings);
    fault::FaultSet faults = fault::sample_faults(
        shape, fault::FaultRates::uniform(rng.next_double()), rng.next());
    // Scatter in faults the shape cannot contain; they must be inert or
    // harmless, never fatal.
    for (int extra = 0; extra < 3; ++extra) {
      faults.add(static_cast<fault::FaultKind>(rng.next_below(6)),
                 static_cast<std::int32_t>(rng.next_below(4096)));
    }
    const fault::DegradeResult result =
        fault::degrade(mc, shape, faults, lib, bindings);
    EXPECT_TRUE(result.classification.ok() ||
                !result.classification.note.empty())
        << to_string(mc);
    EXPECT_GE(result.component_survival, 0.0);
    EXPECT_LE(result.component_survival, 1.0);
    EXPECT_GE(result.flexibility_retention(), 0.0);
    EXPECT_LE(result.flexibility_retention(), 1.0);
    EXPECT_GE(result.surviving_ips, 0);
    EXPECT_LE(result.surviving_ips, shape.ips);
    EXPECT_GE(result.surviving_dps, 0);
    EXPECT_LE(result.surviving_dps, shape.dps);
    if (result.original_classification.ok() && result.classification.ok()) {
      EXPECT_LE(result.degraded_score, result.original_score) << to_string(mc);
    }
    // Degradation is idempotent: re-applying the same set to the
    // degraded structure cannot change the class again.
    if (result.alive()) {
      const fault::FabricShape degraded_shape =
          fault::FabricShape::of(result.degraded, bindings);
      const fault::DegradeResult again =
          fault::degrade(result.degraded, degraded_shape, fault::FaultSet{},
                         lib, bindings);
      EXPECT_EQ(again.degraded, result.degraded);
    }
  }
}

TEST(Fuzz, SkillicornProjectionIsIdempotent) {
  Rng rng(1988);
  for (int i = 0; i < 1000; ++i) {
    const MachineClass mc = random_class(rng);
    const SkillicornProjection once = project_to_skillicorn(mc);
    const SkillicornProjection twice =
        project_to_skillicorn(once.projected);
    EXPECT_EQ(twice.projected, once.projected);
    EXPECT_FALSE(twice.required_extension);
  }
}

// ---------------------------------------------------------------------------
// Wire decoder (src/wire): untrusted bytes must always produce a typed
// verdict — NeedMore / Bad / a decoded frame / a WireError — and never
// crash, hang, or read out of bounds.  CI runs this under ASan/UBSan,
// which is what turns "never overreads" from a comment into a check.

/// Feed one buffer through the full decode path the server uses.
void decode_untrusted(const std::uint8_t* data, std::size_t size) {
  const wire::FrameScan scan = wire::scan_frame(data, size);
  switch (scan.state) {
    case wire::FrameScan::State::NeedMore:
      return;
    case wire::FrameScan::State::Bad:
      EXPECT_NE(scan.error.code, wire::WireErrorCode{});
      return;
    case wire::FrameScan::State::Ready: {
      ASSERT_LE(scan.frame_size, size);
      // Both decoders must reach a verdict on any well-framed bytes.
      const auto request =
          wire::decode_request_frame(data, scan.frame_size);
      if (!request.ok()) {
        EXPECT_FALSE(wire::to_string(request.error.code).empty());
      }
      const auto response =
          wire::decode_response_frame(data, scan.frame_size);
      if (!response.ok()) {
        EXPECT_FALSE(wire::to_string(response.error.code).empty());
      }
      const auto batch = wire::decode_span_batch_frame(data, scan.frame_size);
      if (!batch.ok()) {
        EXPECT_FALSE(wire::to_string(batch.error.code).empty());
      }
      const auto cancel = wire::decode_cancel_frame(data, scan.frame_size);
      if (!cancel.ok()) {
        EXPECT_FALSE(wire::to_string(cancel.error.code).empty());
      }
      return;
    }
  }
}

/// A representative flight-recorder batch: a nested pair, an annotated
/// span, a failover instant, and sender-side drop accounting.
trace::SpanBatch sample_span_batch() {
  trace::SpanBatch batch;
  batch.node = "backend-0";
  batch.send_ns = 123456789;
  batch.dropped = 17;
  trace::ExportSpan call;
  call.name = "cluster.call";
  call.arg_name = "trace_id";
  call.arg = 42;
  call.id = 7;
  call.parent = 3;
  call.trace_id = 0x7ace0001;
  call.thread = 2;
  call.category = trace::Category::Cluster;
  call.start_ns = 1000;
  call.dur_ns = 250;
  batch.spans.push_back(call);
  trace::ExportSpan failover;
  failover.name = "cluster.failover";
  failover.id = 8;
  failover.parent = 7;
  failover.trace_id = 0x7ace0001;
  failover.thread = 2;
  failover.category = trace::Category::Mark;
  failover.start_ns = 1200;
  failover.dur_ns = trace::Span::kInstant;
  batch.spans.push_back(failover);
  return batch;
}

TEST(Fuzz, WireDecoderSurvivesRandomByteStrings) {
  Rng rng(2012);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t size = rng.next_below(256);
    std::vector<std::uint8_t> bytes(size);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    decode_untrusted(bytes.data(), bytes.size());
  }
}

TEST(Fuzz, WireDecoderSurvivesRandomBytesBehindAValidHeader) {
  // Random payloads that pass frame scanning exercise the payload
  // codecs (enum ranges, length plausibility, string bounds) instead of
  // dying at the magic check.
  Rng rng(777);
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t payload_size = rng.next_below(96);
    std::vector<std::uint8_t> frame(wire::kHeaderSize + payload_size);
    frame[0] = 'M';
    frame[1] = 'P';
    frame[2] = 'C';
    frame[3] = 'T';
    frame[4] = 2;  // version (LE): kProtocolVersion
    frame[5] = 0;
    frame[6] = static_cast<std::uint8_t>(1 + rng.next_below(2));  // kind
    frame[7] = 0;  // reserved
    for (std::size_t b = 8; b < 16; ++b) {
      frame[b] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    std::memcpy(frame.data() + 16, &payload_size, sizeof(payload_size));
    for (std::size_t b = 20; b < 28; ++b) {  // trace id: any bits are legal
      frame[b] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    for (std::size_t b = wire::kHeaderSize; b < frame.size(); ++b) {
      frame[b] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    decode_untrusted(frame.data(), frame.size());
  }
}

TEST(Fuzz, WireDecoderSurvivesBitFlippedValidFrames) {
  // Start from genuine frames (one request, one response) and flip one
  // bit at a time: every corruption must land on a typed verdict.
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);
  service::RecommendRequest recommend;
  recommend.requirements.min_flexibility = 2;
  recommend.top_k = 3;
  const service::Request request{std::move(recommend)};
  // The simulate pair exercises the simulate codec paths (workload
  // spec, fault set, run options, result) under corruption as well.
  service::SimulateRequest simulate;
  simulate.target = *canonical_class(*parse_taxonomic_name("IMP-IV"));
  simulate.options.width = 4;
  simulate.faults.add_noc_link(0, 1);
  simulate.seed = 7;
  const service::Request simulate_request{simulate};
  const std::vector<std::vector<std::uint8_t>> seeds = {
      wire::encode_request_frame(11, request, 250),
      wire::encode_response_frame(11, engine.execute(request)),
      wire::encode_request_frame(12, simulate_request, 250),
      wire::encode_response_frame(12, engine.execute(simulate_request)),
      wire::encode_span_batch_frame(13, sample_span_batch()),
      // The QoS wire surface: a frame carrying the trailing priority
      // extension, and a CancelRequest.
      wire::encode_request_frame(14, request, 250, wire::kProtocolVersion, 0,
                                 qos::PriorityClass::Background),
      wire::encode_cancel_frame(15, 0x7ace0002),
  };
  Rng rng(31337);
  for (const auto& seed : seeds) {
    for (int i = 0; i < 2000; ++i) {
      std::vector<std::uint8_t> frame = seed;
      const std::size_t bit = rng.next_below(
          static_cast<std::uint32_t>(frame.size() * 8));
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      decode_untrusted(frame.data(), frame.size());
    }
  }
}

TEST(Fuzz, WireDecoderSurvivesEveryTruncationPrefix) {
  service::CostRequest cost;
  cost.target = MachineClass{};
  cost.n_sweep = {2, 4, 8};
  service::SimulateRequest simulate;
  simulate.target = *canonical_class(*parse_taxonomic_name("DMP-II"));
  simulate.faults.add(fault::FaultKind::DpDead, 3);
  for (const service::Request& request :
       {service::Request{std::move(cost)},
        service::Request{std::move(simulate)}}) {
    const auto frame = wire::encode_request_frame(3, request, 0);
    for (std::size_t len = 0; len <= frame.size(); ++len) {
      decode_untrusted(frame.data(), len);
      // decode_* must also reject a frame cut mid-payload (the server
      // never calls it that way, but the decoder must not rely on that).
      if (len > 0) {
        const auto decoded = wire::decode_request_frame(frame.data(), len);
        EXPECT_EQ(decoded.ok(), len == frame.size());
      }
    }
  }
}

TEST(Fuzz, PriorityExtensionAndCancelFramesSurviveEveryTruncation) {
  // A request frame with an explicit priority byte: every proper prefix
  // must be rejected (NeedMore or a typed error), only the whole frame
  // decodes.  The one-byte-short case in particular fails on framing:
  // the header still promises the longer payload.  (A frame whose
  // header agrees with a payload lacking the byte is Malformed — see
  // QosWire.FramesWithoutTheirQosTailAreMalformed.)
  service::RecommendRequest recommend;
  recommend.top_k = 2;
  const auto tagged = wire::encode_request_frame(
      31, service::Request{std::move(recommend)}, 100, wire::kProtocolVersion,
      0, qos::PriorityClass::Background);
  for (std::size_t len = 0; len <= tagged.size(); ++len) {
    decode_untrusted(tagged.data(), len);
    if (len > 0) {
      const auto decoded = wire::decode_request_frame(tagged.data(), len);
      EXPECT_EQ(decoded.ok(), len == tagged.size());
    }
  }

  const auto cancel = wire::encode_cancel_frame(32, 0x7ace0004);
  for (std::size_t len = 0; len <= cancel.size(); ++len) {
    decode_untrusted(cancel.data(), len);
    if (len > 0) {
      const auto decoded = wire::decode_cancel_frame(cancel.data(), len);
      EXPECT_EQ(decoded.ok(), len == cancel.size());
    }
  }
}

TEST(Fuzz, CancelFramesSurviveBitFlips) {
  // Bit-flipped CancelRequests must never crash and, when they still
  // decode, must carry plausible fields (any u64 ids are legal — the
  // registry lookup is the safety net).  Most flips corrupt the header
  // and land on a typed verdict instead.
  const auto seed = wire::encode_cancel_frame(33, 0x7ace0005);
  Rng rng(90210);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> frame = seed;
    const std::size_t bit =
        rng.next_below(static_cast<std::uint32_t>(frame.size() * 8));
    frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    decode_untrusted(frame.data(), frame.size());
  }
}

TEST(Fuzz, SpanBatchCodecRoundTripsAndRejectsEveryTruncation) {
  const trace::SpanBatch batch = sample_span_batch();
  const auto frame = wire::encode_span_batch_frame(21, batch);
  const auto decoded = wire::decode_span_batch_frame(frame.data(),
                                                     frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
  EXPECT_EQ(decoded.value->request_id, 21u);
  EXPECT_EQ(decoded.value->batch, batch);

  // An empty batch (a heartbeat tick with nothing kept) also survives.
  trace::SpanBatch empty;
  empty.node = "proxy";
  const auto empty_frame = wire::encode_span_batch_frame(22, empty);
  const auto empty_decoded =
      wire::decode_span_batch_frame(empty_frame.data(), empty_frame.size());
  ASSERT_TRUE(empty_decoded.ok()) << empty_decoded.error.to_string();
  EXPECT_EQ(empty_decoded.value->batch, empty);

  // Every proper prefix must be rejected with a typed verdict — the
  // decoder never accepts a frame cut mid-span or mid-string.
  for (std::size_t len = 0; len <= frame.size(); ++len) {
    decode_untrusted(frame.data(), len);
    if (len > 0) {
      const auto cut = wire::decode_span_batch_frame(frame.data(), len);
      EXPECT_EQ(cut.ok(), len == frame.size());
    }
  }
}

}  // namespace
}  // namespace mpct
