#include "wire/protocol.hpp"

#include <memory>
#include <string>
#include <utility>
#include <variant>

#include "arch/connectivity_expr.hpp"
#include "arch/count.hpp"
#include "arch/spec.hpp"
#include "core/classifier.hpp"
#include "core/connectivity.hpp"
#include "core/flexibility.hpp"
#include "core/machine_class.hpp"
#include "core/naming.hpp"
#include "cost/area_model.hpp"
#include "cost/config_bits.hpp"
#include "explore/recommend.hpp"
#include "explore/sweep.hpp"
#include "fault/degradation_curve.hpp"
#include "service/status.hpp"

namespace mpct::wire {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers.

/// Decode a u8-backed enum, rejecting values above @p max_value so a
/// bit-flipped frame can never materialise an out-of-domain enumerator
/// (switching on one downstream would be UB-adjacent at best).
template <typename E>
E decode_enum(Decoder& d, std::uint8_t max_value, const char* what) {
  const std::uint8_t raw = d.u8();
  if (d.ok() && raw > max_value) {
    d.fail(WireErrorCode::Malformed, std::string("bad ") + what + " value " +
                                         std::to_string(raw));
  }
  return static_cast<E>(raw);
}

// ---------------------------------------------------------------------------
// arch::Count — reconstructed through its factories (the fields are
// private); the factories leave the unused fields at their defaults, so
// a factory rebuild is ==-faithful to any factory-built original.

void encode(Encoder& e, const arch::Count& count) {
  e.u8(static_cast<std::uint8_t>(count.kind()));
  e.i64(count.value());  // fixed value or scale factor (same storage)
  e.u8(static_cast<std::uint8_t>(count.symbol()));
}

arch::Count decode_count(Decoder& d) {
  const std::uint8_t kind = d.u8();
  const std::int64_t value = d.i64();
  const char symbol = static_cast<char>(d.u8());
  if (!d.ok()) return {};
  switch (static_cast<arch::Count::Kind>(kind)) {
    case arch::Count::Kind::Fixed:
      return arch::Count::fixed(value);
    case arch::Count::Kind::Symbolic:
      return arch::Count::symbolic(symbol);
    case arch::Count::Kind::ScaledSymbolic:
      return arch::Count::scaled_symbolic(value, symbol);
    case arch::Count::Kind::Variable:
      return arch::Count::variable();
  }
  d.fail(WireErrorCode::Malformed,
         "bad Count kind " + std::to_string(kind));
  return {};
}

// ---------------------------------------------------------------------------
// arch::ConnectivityExpr

void encode(Encoder& e, const arch::ConnectivityExpr& expr) {
  e.u8(static_cast<std::uint8_t>(expr.kind));
  encode(e, expr.left);
  encode(e, expr.right);
}

arch::ConnectivityExpr decode_connectivity_expr(Decoder& d) {
  arch::ConnectivityExpr expr;
  expr.kind = decode_enum<SwitchKind>(d, 2, "SwitchKind");
  expr.left = decode_count(d);
  expr.right = decode_count(d);
  return expr;
}

// ---------------------------------------------------------------------------
// arch::ArchitectureSpec

void encode(Encoder& e, const arch::ArchitectureSpec& spec) {
  e.str(spec.name);
  e.str(spec.citation);
  e.str(spec.description);
  e.i32(spec.year);
  e.str(spec.category);
  e.u8(static_cast<std::uint8_t>(spec.granularity));
  encode(e, spec.ips);
  encode(e, spec.dps);
  for (const auto& cell : spec.connectivity) encode(e, cell);
  e.boolean(spec.paper_name.has_value());
  if (spec.paper_name) e.str(*spec.paper_name);
  e.boolean(spec.paper_flexibility.has_value());
  if (spec.paper_flexibility) e.i32(*spec.paper_flexibility);
}

arch::ArchitectureSpec decode_spec(Decoder& d) {
  arch::ArchitectureSpec spec;
  spec.name = d.str();
  spec.citation = d.str();
  spec.description = d.str();
  spec.year = d.i32();
  spec.category = d.str();
  spec.granularity = decode_enum<Granularity>(d, 1, "Granularity");
  spec.ips = decode_count(d);
  spec.dps = decode_count(d);
  for (auto& cell : spec.connectivity) cell = decode_connectivity_expr(d);
  if (d.boolean()) spec.paper_name = d.str();
  if (d.boolean()) spec.paper_flexibility = d.i32();
  return spec;
}

// ---------------------------------------------------------------------------
// MachineClass / TaxonomicName

void encode(Encoder& e, const MachineClass& mc) {
  e.u8(static_cast<std::uint8_t>(mc.granularity));
  e.u8(static_cast<std::uint8_t>(mc.ips));
  e.u8(static_cast<std::uint8_t>(mc.dps));
  for (const SwitchKind kind : mc.switches) {
    e.u8(static_cast<std::uint8_t>(kind));
  }
}

MachineClass decode_machine_class(Decoder& d) {
  MachineClass mc;
  mc.granularity = decode_enum<Granularity>(d, 1, "Granularity");
  mc.ips = decode_enum<Multiplicity>(d, 3, "Multiplicity");
  mc.dps = decode_enum<Multiplicity>(d, 3, "Multiplicity");
  for (auto& kind : mc.switches) {
    kind = decode_enum<SwitchKind>(d, 2, "SwitchKind");
  }
  return mc;
}

void encode(Encoder& e, const TaxonomicName& name) {
  e.u8(static_cast<std::uint8_t>(name.machine_type));
  e.u8(static_cast<std::uint8_t>(name.processing_type));
  e.i32(name.subtype);
}

TaxonomicName decode_taxonomic_name(Decoder& d) {
  TaxonomicName name;
  name.machine_type = decode_enum<MachineType>(d, 2, "MachineType");
  name.processing_type = decode_enum<ProcessingType>(d, 3, "ProcessingType");
  name.subtype = d.i32();
  return name;
}

// ---------------------------------------------------------------------------
// Classification / FlexibilityBreakdown

void encode(Encoder& e, const Classification& classification) {
  e.boolean(classification.name.has_value());
  if (classification.name) encode(e, *classification.name);
  e.boolean(classification.implementable);
  e.str(classification.note);
}

Classification decode_classification(Decoder& d) {
  Classification classification;
  if (d.boolean()) classification.name = decode_taxonomic_name(d);
  classification.implementable = d.boolean();
  classification.note = d.str();
  return classification;
}

void encode(Encoder& e, const FlexibilityBreakdown& flex) {
  e.i32(flex.many_ips);
  e.i32(flex.many_dps);
  e.i32(flex.crossbar_switches);
  e.i32(flex.variability_bonus);
}

FlexibilityBreakdown decode_flexibility(Decoder& d) {
  FlexibilityBreakdown flex;
  flex.many_ips = d.i32();
  flex.many_dps = d.i32();
  flex.crossbar_switches = d.i32();
  flex.variability_bonus = d.i32();
  return flex;
}

// ---------------------------------------------------------------------------
// explore::Requirements / Recommendation

void encode(Encoder& e, const explore::Requirements& req) {
  e.i32(req.min_flexibility);
  e.boolean(req.paradigm.has_value());
  if (req.paradigm) e.u8(static_cast<std::uint8_t>(*req.paradigm));
  e.boolean(req.needs_independent_programs);
  e.boolean(req.needs_pe_exchange);
  e.boolean(req.needs_shared_memory);
  e.i64(req.n);
  e.i64(req.lut_budget);
  e.u8(static_cast<std::uint8_t>(req.objective));
}

explore::Requirements decode_requirements(Decoder& d) {
  explore::Requirements req;
  req.min_flexibility = d.i32();
  if (d.boolean()) {
    req.paradigm = decode_enum<MachineType>(d, 2, "MachineType");
  }
  req.needs_independent_programs = d.boolean();
  req.needs_pe_exchange = d.boolean();
  req.needs_shared_memory = d.boolean();
  req.n = d.i64();
  req.lut_budget = d.i64();
  req.objective = decode_enum<explore::Requirements::Objective>(
      d, 1, "Requirements::Objective");
  return req;
}

void encode(Encoder& e, const explore::Recommendation& rec) {
  encode(e, rec.name);
  e.i32(rec.flexibility);
  e.f64(rec.area_kge);
  e.i64(rec.config_bits);
  e.str(rec.rationale);
}

explore::Recommendation decode_recommendation(Decoder& d) {
  explore::Recommendation rec;
  rec.name = decode_taxonomic_name(d);
  rec.flexibility = d.i32();
  rec.area_kge = d.f64();
  rec.config_bits = d.i64();
  rec.rationale = d.str();
  return rec;
}

// ---------------------------------------------------------------------------
// cost::EstimateOptions / AreaEstimate / ConfigBitsEstimate

void encode(Encoder& e, const cost::EstimateOptions& options) {
  e.i64(options.n);
  e.i64(options.m);
  e.i64(options.v);
  e.boolean(options.include_ip_dp_switch);
}

cost::EstimateOptions decode_estimate_options(Decoder& d) {
  cost::EstimateOptions options;
  options.n = d.i64();
  options.m = d.i64();
  options.v = d.i64();
  options.include_ip_dp_switch = d.boolean();
  return options;
}

void encode(Encoder& e, const cost::AreaEstimate& area) {
  e.f64(area.ip_blocks);
  e.f64(area.im_blocks);
  e.f64(area.dp_blocks);
  e.f64(area.dm_blocks);
  e.f64(area.lut_blocks);
  e.f64(area.ip_ip_switch);
  e.f64(area.ip_im_switch);
  e.f64(area.ip_dp_switch);
  e.f64(area.dp_dm_switch);
  e.f64(area.dp_dp_switch);
  e.i64(area.n_ips);
  e.i64(area.n_dps);
  e.i64(area.n_ims);
  e.i64(area.n_dms);
  e.i64(area.n_luts);
}

cost::AreaEstimate decode_area_estimate(Decoder& d) {
  cost::AreaEstimate area;
  area.ip_blocks = d.f64();
  area.im_blocks = d.f64();
  area.dp_blocks = d.f64();
  area.dm_blocks = d.f64();
  area.lut_blocks = d.f64();
  area.ip_ip_switch = d.f64();
  area.ip_im_switch = d.f64();
  area.ip_dp_switch = d.f64();
  area.dp_dm_switch = d.f64();
  area.dp_dp_switch = d.f64();
  area.n_ips = d.i64();
  area.n_dps = d.i64();
  area.n_ims = d.i64();
  area.n_dms = d.i64();
  area.n_luts = d.i64();
  return area;
}

void encode(Encoder& e, const cost::ConfigBitsEstimate& bits) {
  e.i64(bits.ip_blocks);
  e.i64(bits.im_blocks);
  e.i64(bits.dp_blocks);
  e.i64(bits.dm_blocks);
  e.i64(bits.lut_blocks);
  e.i64(bits.ip_ip_switch);
  e.i64(bits.ip_im_switch);
  e.i64(bits.ip_dp_switch);
  e.i64(bits.dp_dm_switch);
  e.i64(bits.dp_dp_switch);
}

cost::ConfigBitsEstimate decode_config_bits_estimate(Decoder& d) {
  cost::ConfigBitsEstimate bits;
  bits.ip_blocks = d.i64();
  bits.im_blocks = d.i64();
  bits.dp_blocks = d.i64();
  bits.dm_blocks = d.i64();
  bits.lut_blocks = d.i64();
  bits.ip_ip_switch = d.i64();
  bits.ip_im_switch = d.i64();
  bits.ip_dp_switch = d.i64();
  bits.dp_dm_switch = d.i64();
  bits.dp_dp_switch = d.i64();
  return bits;
}

// ---------------------------------------------------------------------------
// explore::SweepGrid / SweepPoint / SweepResult

void encode(Encoder& e, const explore::SweepGrid& grid) {
  encode(e, grid.base);
  e.length(grid.n_values.size());
  for (const std::int64_t n : grid.n_values) e.i64(n);
  e.length(grid.lut_budgets.size());
  for (const std::int64_t budget : grid.lut_budgets) e.i64(budget);
  e.length(grid.objectives.size());
  for (const auto objective : grid.objectives) {
    e.u8(static_cast<std::uint8_t>(objective));
  }
}

explore::SweepGrid decode_sweep_grid(Decoder& d) {
  explore::SweepGrid grid;
  grid.base = decode_requirements(d);
  const std::size_t n_count = d.length(8);
  grid.n_values.reserve(n_count);
  for (std::size_t i = 0; i < n_count && d.ok(); ++i) {
    grid.n_values.push_back(d.i64());
  }
  const std::size_t budget_count = d.length(8);
  grid.lut_budgets.reserve(budget_count);
  for (std::size_t i = 0; i < budget_count && d.ok(); ++i) {
    grid.lut_budgets.push_back(d.i64());
  }
  const std::size_t objective_count = d.length(1);
  grid.objectives.reserve(objective_count);
  for (std::size_t i = 0; i < objective_count && d.ok(); ++i) {
    grid.objectives.push_back(decode_enum<explore::Requirements::Objective>(
        d, 1, "Requirements::Objective"));
  }
  return grid;
}

/// Encoded SweepPoint size: n(8) + lut_budget(8) + objective(1) +
/// feasible(1) + TaxonomicName(6) + flexibility(4) + area(8) + bits(8).
constexpr std::size_t kSweepPointBytes = 44;

void encode(Encoder& e, const explore::SweepPoint& point) {
  e.i64(point.n);
  e.i64(point.lut_budget);
  e.u8(static_cast<std::uint8_t>(point.objective));
  e.boolean(point.feasible);
  encode(e, point.best);
  e.i32(point.flexibility);
  e.f64(point.area_kge);
  e.i64(point.config_bits);
}

explore::SweepPoint decode_sweep_point(Decoder& d) {
  explore::SweepPoint point;
  point.n = d.i64();
  point.lut_budget = d.i64();
  point.objective = decode_enum<explore::Requirements::Objective>(
      d, 1, "Requirements::Objective");
  point.feasible = d.boolean();
  point.best = decode_taxonomic_name(d);
  point.flexibility = d.i32();
  point.area_kge = d.f64();
  point.config_bits = d.i64();
  return point;
}

void encode(Encoder& e, const explore::SweepResult& result) {
  e.length(result.points.size());
  for (const auto& point : result.points) encode(e, point);
  e.length(result.pareto_front.size());
  for (const auto& point : result.pareto_front) encode(e, point);
  e.u64(result.candidate_classes);
}

explore::SweepResult decode_sweep_result(Decoder& d) {
  explore::SweepResult result;
  const std::size_t point_count = d.length(kSweepPointBytes);
  result.points.reserve(point_count);
  for (std::size_t i = 0; i < point_count && d.ok(); ++i) {
    result.points.push_back(decode_sweep_point(d));
  }
  const std::size_t front_count = d.length(kSweepPointBytes);
  result.pareto_front.reserve(front_count);
  for (std::size_t i = 0; i < front_count && d.ok(); ++i) {
    result.pareto_front.push_back(decode_sweep_point(d));
  }
  result.candidate_classes = static_cast<std::size_t>(d.u64());
  return result;
}

// ---------------------------------------------------------------------------
// fault::CurveSpec / CurvePoint / CurveResult

void encode(Encoder& e, const fault::CurveSpec& spec) {
  encode(e, spec.machine);
  encode(e, spec.bindings);
  e.i32(spec.noc_width);
  e.i32(spec.noc_height);
  e.length(spec.fault_rates.size());
  for (const double rate : spec.fault_rates) e.f64(rate);
  e.i32(spec.trials_per_rate);
  e.u64(spec.seed);
}

fault::CurveSpec decode_curve_spec(Decoder& d) {
  fault::CurveSpec spec;
  spec.machine = decode_machine_class(d);
  spec.bindings = decode_estimate_options(d);
  spec.noc_width = d.i32();
  spec.noc_height = d.i32();
  const std::size_t rate_count = d.length(8);
  spec.fault_rates.reserve(rate_count);
  for (std::size_t i = 0; i < rate_count && d.ok(); ++i) {
    spec.fault_rates.push_back(d.f64());
  }
  spec.trials_per_rate = d.i32();
  spec.seed = d.u64();
  return spec;
}

/// Encoded CurvePoint size: fault_rate(8) + trials(4) + 4 doubles(32).
constexpr std::size_t kCurvePointBytes = 44;

void encode(Encoder& e, const fault::CurvePoint& point) {
  e.f64(point.fault_rate);
  e.i32(point.trials);
  e.f64(point.yield);
  e.f64(point.mean_flexibility);
  e.f64(point.mean_connectivity);
  e.f64(point.mean_survival);
}

fault::CurvePoint decode_curve_point(Decoder& d) {
  fault::CurvePoint point;
  point.fault_rate = d.f64();
  point.trials = d.i32();
  point.yield = d.f64();
  point.mean_flexibility = d.f64();
  point.mean_connectivity = d.f64();
  point.mean_survival = d.f64();
  return point;
}

void encode(Encoder& e, const fault::CurveResult& result) {
  encode(e, result.spec);
  e.length(result.points.size());
  for (const auto& point : result.points) encode(e, point);
}

fault::CurveResult decode_curve_result(Decoder& d) {
  fault::CurveResult result;
  result.spec = decode_curve_spec(d);
  const std::size_t point_count = d.length(kCurvePointBytes);
  result.points.reserve(point_count);
  for (std::size_t i = 0; i < point_count && d.ok(); ++i) {
    result.points.push_back(decode_curve_point(d));
  }
  return result;
}

// ---------------------------------------------------------------------------
// service::Status

void encode(Encoder& e, const service::Status& status) {
  e.i32(static_cast<std::int32_t>(status.code));
  e.str(status.message);
}

service::Status decode_status(Decoder& d) {
  service::Status status;
  const std::int32_t code = d.i32();
  if (d.ok() &&
      (code < 0 ||
       code > static_cast<std::int32_t>(service::StatusCode::Cancelled))) {
    d.fail(WireErrorCode::Malformed,
           "bad StatusCode value " + std::to_string(code));
  }
  status.code = static_cast<service::StatusCode>(code);
  status.message = d.str();
  return status;
}

// ---------------------------------------------------------------------------
// Request variants

void encode(Encoder& e, const service::ClassifyRequest& request) {
  e.u8(static_cast<std::uint8_t>(request.input.index()));
  if (const auto* spec = std::get_if<arch::ArchitectureSpec>(&request.input)) {
    encode(e, *spec);
  } else {
    e.str(std::get<std::string>(request.input));
  }
}

service::ClassifyRequest decode_classify_request(Decoder& d) {
  service::ClassifyRequest request;
  const std::uint8_t which = d.u8();
  if (!d.ok()) return request;
  switch (which) {
    case 0:
      request.input = decode_spec(d);
      break;
    case 1:
      request.input = d.str();
      break;
    default:
      d.fail(WireErrorCode::Malformed,
             "bad ClassifyRequest alternative " + std::to_string(which));
  }
  return request;
}

void encode(Encoder& e, const service::RecommendRequest& request) {
  encode(e, request.requirements);
  e.u64(static_cast<std::uint64_t>(request.top_k));
}

service::RecommendRequest decode_recommend_request(Decoder& d) {
  service::RecommendRequest request;
  request.requirements = decode_requirements(d);
  request.top_k = static_cast<std::size_t>(d.u64());
  return request;
}

void encode(Encoder& e, const service::CostRequest& request) {
  e.u8(static_cast<std::uint8_t>(request.target.index()));
  if (const auto* mc = std::get_if<MachineClass>(&request.target)) {
    encode(e, *mc);
  } else {
    encode(e, std::get<arch::ArchitectureSpec>(request.target));
  }
  encode(e, request.options);
  e.length(request.n_sweep.size());
  for (const std::int64_t n : request.n_sweep) e.i64(n);
}

service::CostRequest decode_cost_request(Decoder& d) {
  service::CostRequest request;
  const std::uint8_t which = d.u8();
  if (!d.ok()) return request;
  switch (which) {
    case 0:
      request.target = decode_machine_class(d);
      break;
    case 1:
      request.target = decode_spec(d);
      break;
    default:
      d.fail(WireErrorCode::Malformed,
             "bad CostRequest alternative " + std::to_string(which));
      return request;
  }
  request.options = decode_estimate_options(d);
  const std::size_t sweep_count = d.length(8);
  request.n_sweep.reserve(sweep_count);
  for (std::size_t i = 0; i < sweep_count && d.ok(); ++i) {
    request.n_sweep.push_back(d.i64());
  }
  return request;
}

void encode(Encoder& e, const workload::WorkloadSpec& spec) {
  e.u8(static_cast<std::uint8_t>(spec.kernel));
  e.i32(spec.size);
  e.i32(spec.iterations);
  e.i64(spec.alpha);
}

workload::WorkloadSpec decode_workload_spec(Decoder& d) {
  workload::WorkloadSpec spec;
  spec.kernel = decode_enum<workload::Kernel>(d, 2, "Kernel");
  spec.size = d.i32();
  spec.iterations = d.i32();
  spec.alpha = d.i64();
  return spec;
}

void encode(Encoder& e, const fault::FaultSet& faults) {
  e.length(faults.size());
  for (const fault::Fault& f : faults.faults()) {
    e.u8(static_cast<std::uint8_t>(f.kind));
    e.u8(static_cast<std::uint8_t>(f.role));
    e.i32(f.index);
    e.i32(f.index2);
  }
}

fault::FaultSet decode_fault_set(Decoder& d) {
  // Fault: kind(1) + role(1) + index(4) + index2(4).
  const std::size_t count = d.length(10);
  std::vector<fault::Fault> faults;
  faults.reserve(count);
  for (std::size_t i = 0; i < count && d.ok(); ++i) {
    fault::Fault f;
    f.kind = decode_enum<fault::FaultKind>(d, 5, "FaultKind");
    f.role = decode_enum<ConnectivityRole>(d, 4, "ConnectivityRole");
    f.index = d.i32();
    f.index2 = d.i32();
    faults.push_back(f);
  }
  // The FaultSet constructor canonicalises (sorts, dedups), so a peer
  // that sent faults in any order still round-trips to an equal set.
  return fault::FaultSet(std::move(faults));
}

void encode(Encoder& e, const service::SimulateRequest& request) {
  encode(e, request.workload);
  e.u8(static_cast<std::uint8_t>(request.target.index()));
  if (const auto* mc = std::get_if<MachineClass>(&request.target)) {
    encode(e, *mc);
  } else {
    encode(e, std::get<arch::ArchitectureSpec>(request.target));
  }
  e.i32(request.options.width);
  e.i64(request.options.max_cycles);
  encode(e, request.faults);
  e.u64(request.seed);
}

service::SimulateRequest decode_simulate_request(Decoder& d) {
  service::SimulateRequest request;
  request.workload = decode_workload_spec(d);
  const std::uint8_t which = d.u8();
  if (!d.ok()) return request;
  switch (which) {
    case 0:
      request.target = decode_machine_class(d);
      break;
    case 1:
      request.target = decode_spec(d);
      break;
    default:
      d.fail(WireErrorCode::Malformed,
             "bad SimulateRequest alternative " + std::to_string(which));
      return request;
  }
  request.options.width = d.i32();
  request.options.max_cycles = d.i64();
  request.faults = decode_fault_set(d);
  request.seed = d.u64();
  return request;
}

// ---------------------------------------------------------------------------
// Response variants

void encode(Encoder& e, const service::ClassifyResponse& response) {
  encode(e, response.spec);
  encode(e, response.classification);
  encode(e, response.flexibility);
}

service::ClassifyResponse decode_classify_response(Decoder& d) {
  service::ClassifyResponse response;
  response.spec = decode_spec(d);
  response.classification = decode_classification(d);
  response.flexibility = decode_flexibility(d);
  return response;
}

void encode(Encoder& e, const service::RecommendResponse& response) {
  e.length(response.recommendations.size());
  for (const auto& rec : response.recommendations) encode(e, rec);
}

service::RecommendResponse decode_recommend_response(Decoder& d) {
  service::RecommendResponse response;
  // Minimum Recommendation: name(6) + flexibility(4) + area(8) +
  // config_bits(8) + empty rationale(4).
  const std::size_t count = d.length(30);
  response.recommendations.reserve(count);
  for (std::size_t i = 0; i < count && d.ok(); ++i) {
    response.recommendations.push_back(decode_recommendation(d));
  }
  return response;
}

void encode(Encoder& e, const service::CostResponse& response) {
  e.length(response.points.size());
  for (const auto& point : response.points) {
    e.i64(point.n);
    encode(e, point.area);
    encode(e, point.config_bits);
  }
}

service::CostResponse decode_cost_response(Decoder& d) {
  service::CostResponse response;
  // Point: n(8) + AreaEstimate(15 * 8) + ConfigBitsEstimate(10 * 8).
  const std::size_t count = d.length(208);
  response.points.reserve(count);
  for (std::size_t i = 0; i < count && d.ok(); ++i) {
    service::CostResponse::Point point;
    point.n = d.i64();
    point.area = decode_area_estimate(d);
    point.config_bits = decode_config_bits_estimate(d);
    response.points.push_back(std::move(point));
  }
  return response;
}

void encode(Encoder& e, const service::SimulateResponse& response) {
  const workload::WorkloadResult& r = response.result;
  e.u8(static_cast<std::uint8_t>(r.paradigm));
  encode(e, r.machine);
  e.i64(r.cycles);
  e.i64(r.instructions);
  e.boolean(r.halted);
  e.i32(r.output_words);
  e.u64(r.output_checksum);
  e.boolean(r.matches_reference);
  e.i64(r.memory_accesses);
  e.i64(r.messages);
  e.f64(r.energy_pj);
  e.f64(r.noc_reachable_fraction);
}

service::SimulateResponse decode_simulate_response(Decoder& d) {
  service::SimulateResponse response;
  workload::WorkloadResult& r = response.result;
  r.paradigm = decode_enum<workload::Paradigm>(d, 4, "Paradigm");
  r.machine = decode_taxonomic_name(d);
  r.cycles = d.i64();
  r.instructions = d.i64();
  r.halted = d.boolean();
  r.output_words = d.i32();
  r.output_checksum = d.u64();
  r.matches_reference = d.boolean();
  r.memory_accesses = d.i64();
  r.messages = d.i64();
  r.energy_pj = d.f64();
  r.noc_reachable_fraction = d.f64();
  return response;
}

// ---------------------------------------------------------------------------
// Whole Request / ResponsePayload

void encode(Encoder& e, const service::Request& request) {
  e.u8(static_cast<std::uint8_t>(request.index()));
  std::visit(
      [&e](const auto& alternative) {
        using T = std::decay_t<decltype(alternative)>;
        if constexpr (std::is_same_v<T, service::SweepRequest>) {
          encode(e, alternative.grid);
        } else if constexpr (std::is_same_v<T, service::FaultSweepRequest>) {
          encode(e, alternative.spec);
        } else if constexpr (std::is_same_v<T, service::SweepChunkRequest>) {
          encode(e, alternative.grid);
          e.u64(alternative.begin);
          e.u64(alternative.end);
        } else if constexpr (std::is_same_v<T, service::FaultChunkRequest>) {
          encode(e, alternative.spec);
          e.u64(alternative.begin);
          e.u64(alternative.end);
        } else {
          encode(e, alternative);
        }
      },
      request);
}

service::Request decode_request(Decoder& d) {
  const std::uint8_t type = d.u8();
  if (!d.ok()) return service::ClassifyRequest{};
  switch (static_cast<service::RequestType>(type)) {
    case service::RequestType::Classify:
      return decode_classify_request(d);
    case service::RequestType::Recommend:
      return decode_recommend_request(d);
    case service::RequestType::Cost:
      return decode_cost_request(d);
    case service::RequestType::Sweep:
      return service::SweepRequest{decode_sweep_grid(d)};
    case service::RequestType::FaultSweep:
      return service::FaultSweepRequest{decode_curve_spec(d)};
    case service::RequestType::SweepChunk: {
      service::SweepChunkRequest chunk;
      chunk.grid = decode_sweep_grid(d);
      chunk.begin = d.u64();
      chunk.end = d.u64();
      return chunk;
    }
    case service::RequestType::FaultChunk: {
      service::FaultChunkRequest chunk;
      chunk.spec = decode_curve_spec(d);
      chunk.begin = d.u64();
      chunk.end = d.u64();
      return chunk;
    }
    case service::RequestType::Simulate:
      return decode_simulate_request(d);
  }
  d.fail(WireErrorCode::Malformed,
         "bad RequestType value " + std::to_string(type));
  return service::ClassifyRequest{};
}

void encode_payload(Encoder& e, const service::QueryResponse& response) {
  if (!response.payload) {
    e.u8(0);  // monostate: rejected/errored responses carry no payload
    return;
  }
  e.u8(static_cast<std::uint8_t>(response.payload->index()));
  std::visit(
      [&e](const auto& alternative) {
        using T = std::decay_t<decltype(alternative)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          // index byte already written; nothing follows
        } else if constexpr (std::is_same_v<T, service::SweepResponse>) {
          encode(e, alternative.result);
        } else if constexpr (std::is_same_v<T, service::FaultSweepResponse>) {
          encode(e, alternative.result);
        } else if constexpr (std::is_same_v<T, service::SweepChunkResponse>) {
          e.length(alternative.points.size());
          for (const auto& point : alternative.points) encode(e, point);
          e.u64(alternative.candidate_classes);
        } else if constexpr (std::is_same_v<T, service::FaultChunkResponse>) {
          e.length(alternative.outcomes.size());
          for (const auto& outcome : alternative.outcomes) {
            e.boolean(outcome.alive);
            e.i32(outcome.degraded_score);
            e.f64(outcome.flexibility_retention);
            e.f64(outcome.component_survival);
            e.f64(outcome.connectivity);
          }
        } else {
          encode(e, alternative);
        }
      },
      *response.payload);
}

std::shared_ptr<const service::ResponsePayload> decode_payload(Decoder& d) {
  const std::uint8_t index = d.u8();
  if (!d.ok()) return nullptr;
  switch (index) {
    case 0:
      return nullptr;
    case 1:
      return std::make_shared<const service::ResponsePayload>(
          decode_classify_response(d));
    case 2:
      return std::make_shared<const service::ResponsePayload>(
          decode_recommend_response(d));
    case 3:
      return std::make_shared<const service::ResponsePayload>(
          decode_cost_response(d));
    case 4:
      return std::make_shared<const service::ResponsePayload>(
          service::SweepResponse{decode_sweep_result(d)});
    case 5:
      return std::make_shared<const service::ResponsePayload>(
          service::FaultSweepResponse{decode_curve_result(d)});
    case 6: {
      service::SweepChunkResponse chunk;
      const std::size_t count = d.length(kSweepPointBytes);
      chunk.points.reserve(count);
      for (std::size_t i = 0; i < count && d.ok(); ++i) {
        chunk.points.push_back(decode_sweep_point(d));
      }
      chunk.candidate_classes = d.u64();
      return std::make_shared<const service::ResponsePayload>(
          std::move(chunk));
    }
    case 7: {
      service::FaultChunkResponse chunk;
      // TrialOutcome: alive(1) + score(4) + 3 doubles(24).
      const std::size_t count = d.length(29);
      chunk.outcomes.reserve(count);
      for (std::size_t i = 0; i < count && d.ok(); ++i) {
        fault::TrialOutcome outcome;
        outcome.alive = d.boolean();
        outcome.degraded_score = d.i32();
        outcome.flexibility_retention = d.f64();
        outcome.component_survival = d.f64();
        outcome.connectivity = d.f64();
        chunk.outcomes.push_back(outcome);
      }
      return std::make_shared<const service::ResponsePayload>(
          std::move(chunk));
    }
    case 8:
      return std::make_shared<const service::ResponsePayload>(
          decode_simulate_response(d));
    default:
      break;
  }
  d.fail(WireErrorCode::Malformed,
         "bad ResponsePayload alternative " + std::to_string(index));
  return nullptr;
}

// ---------------------------------------------------------------------------
// Frame header

void encode_header(Encoder& e, FrameKind kind, std::uint64_t request_id,
                   std::uint16_t version, std::uint64_t trace_id,
                   std::size_t payload_size) {
  e.u32(kMagic);
  e.u16(version);
  e.u8(static_cast<std::uint8_t>(kind));
  e.u8(0);  // reserved
  e.u64(request_id);
  e.u32(static_cast<std::uint32_t>(payload_size));
  e.u64(trace_id);
}

/// Build one frame size-first: @p payload runs once on a sizing encoder
/// to count the payload bytes, then once more on a writing encoder
/// allocated at the exact frame size, right after the header that
/// carries that count.  Each message is described once, by @p payload.
template <typename Payload>
std::vector<std::uint8_t> encode_frame(
    FrameKind kind, std::uint64_t request_id, std::uint64_t trace_id,
    const Payload& payload, std::uint16_t version = kProtocolVersion) {
  Encoder sizer;
  payload(sizer);
  const std::size_t payload_size = sizer.size();
  Encoder e(kHeaderSize + payload_size);
  encode_header(e, kind, request_id, version, trace_id, payload_size);
  payload(e);
  return e.take();
}

std::vector<std::uint8_t> encode_header_only_frame(FrameKind kind,
                                                   std::uint64_t request_id,
                                                   std::uint64_t trace_id) {
  return encode_frame(kind, request_id, trace_id, [](Encoder&) {});
}

/// Bytes of kMagic in wire (little-endian) order — "MPCT".
constexpr std::uint8_t kMagicBytes[4] = {
    static_cast<std::uint8_t>(kMagic & 0xFF),
    static_cast<std::uint8_t>((kMagic >> 8) & 0xFF),
    static_cast<std::uint8_t>((kMagic >> 16) & 0xFF),
    static_cast<std::uint8_t>((kMagic >> 24) & 0xFF),
};

FrameScan bad_frame(WireErrorCode code, std::string message) {
  FrameScan scan;
  scan.state = FrameScan::State::Bad;
  scan.error = {code, std::move(message)};
  return scan;
}

/// Open @p data as exactly one frame of @p kind: the scan's typed error,
/// Truncated when @p size is not exactly one frame, BadFrameKind when
/// the kind differs, else the header.
DecodeResult<FrameHeader> open_frame(const std::uint8_t* data,
                                     std::size_t size, FrameKind kind,
                                     const char* kind_name) {
  const FrameScan scan = scan_frame(data, size);
  if (scan.state == FrameScan::State::Bad) return {std::nullopt, scan.error};
  if (scan.state == FrameScan::State::NeedMore || scan.frame_size != size) {
    return {std::nullopt,
            {WireErrorCode::Truncated, "buffer is not exactly one frame"}};
  }
  if (scan.header.kind != kind) {
    return {std::nullopt,
            {WireErrorCode::BadFrameKind,
             std::string("expected a ") + kind_name + " frame, got kind " +
                 std::to_string(static_cast<int>(scan.header.kind))}};
  }
  return {scan.header, {}};
}

/// The decoded @p frame, unless @p d failed or left bytes over.
template <typename T>
DecodeResult<T> finish(Decoder& d, T frame) {
  d.expect_end();
  if (!d.ok()) return {std::nullopt, d.error()};
  return {std::move(frame), {}};
}

/// Fail Malformed unless at least @p bytes of mandatory trailing fields
/// remain: a payload that ends where its tail should start is missing a
/// field, not cut short by the framing.
void require_tail(Decoder& d, std::size_t bytes, const char* what) {
  if (d.ok() && d.remaining() < bytes) {
    d.fail(WireErrorCode::Malformed, std::string("payload lacks its ") + what);
  }
}

}  // namespace

std::optional<std::uint16_t> negotiate_version(std::uint16_t client_min,
                                               std::uint16_t client_max) {
  if (client_min <= kProtocolVersion && kProtocolVersion <= client_max) {
    return kProtocolVersion;
  }
  return std::nullopt;
}

FrameScan scan_frame(const std::uint8_t* data, std::size_t size) {
  // Reject a wrong magic as early as the bytes allow: a stream that is
  // not frame-aligned should not be able to stall a reader by dribbling
  // garbage one byte at a time.
  const std::size_t magic_prefix = size < 4 ? size : 4;
  for (std::size_t i = 0; i < magic_prefix; ++i) {
    if (data[i] != kMagicBytes[i]) {
      return bad_frame(WireErrorCode::BadMagic,
                       "frame does not start with 'MPCT'");
    }
  }
  // Likewise a foreign version: reject it before waiting for a header
  // whose layout this build does not know.
  if (size < 6) return {};  // NeedMore
  const std::uint16_t version = static_cast<std::uint16_t>(
      data[4] | (static_cast<std::uint16_t>(data[5]) << 8));
  if (version != kProtocolVersion) {
    return bad_frame(WireErrorCode::UnsupportedVersion,
                     "frame version " + std::to_string(version) +
                         ", this build speaks " +
                         std::to_string(kProtocolVersion));
  }
  if (size < kHeaderSize) return {};  // NeedMore

  Decoder d(data, kHeaderSize);
  d.u32();  // magic, validated above
  d.u16();  // version, validated above
  const std::uint8_t kind = d.u8();
  const std::uint8_t reserved = d.u8();
  const std::uint64_t request_id = d.u64();
  const std::uint32_t payload_size = d.u32();
  const std::uint64_t trace_id = d.u64();

  if (kind < static_cast<std::uint8_t>(FrameKind::Request) ||
      kind > static_cast<std::uint8_t>(FrameKind::CancelRequest)) {
    return bad_frame(WireErrorCode::BadFrameKind,
                     "frame kind byte " + std::to_string(kind));
  }
  if (reserved != 0) {
    return bad_frame(WireErrorCode::Malformed,
                     "reserved header byte must be 0");
  }
  if (payload_size > kMaxPayloadBytes) {
    return bad_frame(WireErrorCode::Oversized,
                     "payload of " + std::to_string(payload_size) +
                         " bytes exceeds the " +
                         std::to_string(kMaxPayloadBytes) + " byte ceiling");
  }
  if (size < kHeaderSize + payload_size) return {};  // NeedMore

  FrameScan scan;
  scan.state = FrameScan::State::Ready;
  scan.header = {static_cast<FrameKind>(kind), request_id, payload_size,
                 trace_id};
  scan.frame_size = kHeaderSize + payload_size;
  return scan;
}

std::vector<std::uint8_t> encode_request_frame(
    std::uint64_t request_id, const service::Request& request,
    std::uint32_t deadline_ms, std::uint16_t version, std::uint64_t trace_id,
    std::optional<qos::PriorityClass> priority) {
  return encode_frame(
      FrameKind::Request, request_id, trace_id,
      [&](Encoder& e) {
        e.u32(deadline_ms);
        encode(e, request);
        e.u8(static_cast<std::uint8_t>(
            priority.value_or(qos::default_priority(request))));
      },
      version);
}

std::vector<std::uint8_t> encode_response_frame(
    std::uint64_t request_id, const service::QueryResponse& response,
    std::uint64_t trace_id) {
  return encode_frame(
      FrameKind::Response, request_id, trace_id, [&](Encoder& e) {
        encode(e, response.status);
        e.boolean(response.cache_hit);
        e.i64(response.latency.count());
        encode_payload(e, response);
        // QoS tail: one flags byte (bit 0 = sampled, i.e. precision was
        // shed) + the Overloaded retry-after hint in ms.
        e.u8(response.sampled ? 1 : 0);
        e.u32(response.status.retry_after_ms);
      });
}

std::vector<std::uint8_t> encode_ping_frame(std::uint64_t request_id) {
  return encode_header_only_frame(FrameKind::Ping, request_id, 0);
}

std::vector<std::uint8_t> encode_pong_frame(std::uint64_t request_id) {
  return encode_header_only_frame(FrameKind::Pong, request_id, 0);
}

std::vector<std::uint8_t> encode_hello_frame(std::uint64_t request_id,
                                             std::uint16_t min_version,
                                             std::uint16_t max_version) {
  return encode_frame(FrameKind::Hello, request_id, 0, [&](Encoder& e) {
    e.u16(min_version);
    e.u16(max_version);
  });
}

std::vector<std::uint8_t> encode_hello_ack_frame(std::uint64_t request_id,
                                                 const service::Status& status,
                                                 std::uint16_t agreed_version) {
  return encode_frame(FrameKind::HelloAck, request_id, 0, [&](Encoder& e) {
    encode(e, status);
    e.u16(agreed_version);
  });
}

std::vector<std::uint8_t> encode_cancel_frame(std::uint64_t request_id,
                                              std::uint64_t trace_id) {
  return encode_header_only_frame(FrameKind::CancelRequest, request_id,
                                  trace_id);
}

DecodeResult<CancelFrame> decode_cancel_frame(const std::uint8_t* data,
                                              std::size_t size) {
  const auto header =
      open_frame(data, size, FrameKind::CancelRequest, "cancel");
  if (!header.ok()) return {std::nullopt, header.error};
  if (header.value->payload_size != 0) {
    return {std::nullopt,
            {WireErrorCode::Malformed, "cancel frames carry no payload"}};
  }
  return {CancelFrame{header.value->request_id, header.value->trace_id}, {}};
}

std::vector<std::uint8_t> encode_span_batch_frame(
    std::uint64_t request_id, const trace::SpanBatch& batch) {
  return encode_frame(FrameKind::SpanBatch, request_id, 0, [&](Encoder& e) {
    e.str(batch.node);
    e.i64(batch.send_ns);
    e.u64(batch.dropped);
    e.length(batch.spans.size());
    for (const trace::ExportSpan& span : batch.spans) {
      e.str(span.name);
      e.str(span.arg_name);
      e.i64(span.arg);
      e.u64(span.id);
      e.u64(span.parent);
      e.u64(span.trace_id);
      e.u32(span.thread);
      e.u8(static_cast<std::uint8_t>(span.category));
      e.i64(span.start_ns);
      e.i64(span.dur_ns);
    }
  });
}

DecodeResult<SpanBatchFrame> decode_span_batch_frame(const std::uint8_t* data,
                                                     std::size_t size) {
  const auto header =
      open_frame(data, size, FrameKind::SpanBatch, "span batch");
  if (!header.ok()) return {std::nullopt, header.error};
  SpanBatchFrame frame;
  frame.request_id = header.value->request_id;
  Decoder d(data + kHeaderSize, header.value->payload_size);
  frame.batch.node = d.str();
  frame.batch.send_ns = d.i64();
  frame.batch.dropped = d.u64();
  // Per-span floor: two empty strings (4+4) + the fixed fields (53).
  const std::size_t count = d.length(61);
  frame.batch.spans.reserve(count);
  for (std::size_t i = 0; i < count && d.ok(); ++i) {
    trace::ExportSpan span;
    span.name = d.str();
    span.arg_name = d.str();
    span.arg = d.i64();
    span.id = d.u64();
    span.parent = d.u64();
    span.trace_id = d.u64();
    span.thread = d.u32();
    span.category = decode_enum<trace::Category>(
        d, static_cast<std::uint8_t>(trace::kCategoryCount - 1), "Category");
    span.start_ns = d.i64();
    span.dur_ns = d.i64();
    if (span.dur_ns < trace::Span::kInstant) {
      d.fail(WireErrorCode::Malformed, "span duration below kInstant");
    }
    frame.batch.spans.push_back(std::move(span));
  }
  return finish(d, std::move(frame));
}

DecodeResult<RequestFrame> decode_request_frame(const std::uint8_t* data,
                                                std::size_t size) {
  const auto header = open_frame(data, size, FrameKind::Request, "request");
  if (!header.ok()) return {std::nullopt, header.error};
  RequestFrame frame;
  frame.request_id = header.value->request_id;
  frame.trace_id = header.value->trace_id;
  Decoder d(data + kHeaderSize, header.value->payload_size);
  frame.deadline_ms = d.u32();
  frame.request = decode_request(d);
  require_tail(d, 1, "priority byte");
  frame.priority = decode_enum<qos::PriorityClass>(d, 2, "PriorityClass");
  return finish(d, std::move(frame));
}

DecodeResult<ResponseFrame> decode_response_frame(const std::uint8_t* data,
                                                  std::size_t size) {
  const auto header = open_frame(data, size, FrameKind::Response, "response");
  if (!header.ok()) return {std::nullopt, header.error};
  ResponseFrame frame;
  frame.request_id = header.value->request_id;
  frame.trace_id = header.value->trace_id;
  Decoder d(data + kHeaderSize, header.value->payload_size);
  frame.response.status = decode_status(d);
  frame.response.cache_hit = d.boolean();
  frame.response.latency = std::chrono::nanoseconds(d.i64());
  frame.response.payload = decode_payload(d);
  require_tail(d, 5, "qos flags and retry-after tail");
  const std::uint8_t flags = d.u8();
  if (d.ok() && (flags & ~std::uint8_t{1}) != 0) {
    d.fail(WireErrorCode::Malformed,
           "bad qos flags byte " + std::to_string(flags));
  }
  frame.response.sampled = (flags & 1) != 0;
  frame.response.status.retry_after_ms = d.u32();
  return finish(d, std::move(frame));
}

DecodeResult<HelloFrame> decode_hello_frame(const std::uint8_t* data,
                                            std::size_t size) {
  const auto header = open_frame(data, size, FrameKind::Hello, "Hello");
  if (!header.ok()) return {std::nullopt, header.error};
  HelloFrame frame;
  frame.request_id = header.value->request_id;
  Decoder d(data + kHeaderSize, header.value->payload_size);
  frame.min_version = d.u16();
  frame.max_version = d.u16();
  if (d.ok() && frame.min_version > frame.max_version) {
    d.fail(WireErrorCode::Malformed, "Hello min_version above max_version");
  }
  return finish(d, frame);
}

DecodeResult<HelloAckFrame> decode_hello_ack_frame(const std::uint8_t* data,
                                                   std::size_t size) {
  const auto header = open_frame(data, size, FrameKind::HelloAck, "HelloAck");
  if (!header.ok()) return {std::nullopt, header.error};
  HelloAckFrame frame;
  frame.request_id = header.value->request_id;
  Decoder d(data + kHeaderSize, header.value->payload_size);
  frame.status = decode_status(d);
  frame.agreed_version = d.u16();
  return finish(d, std::move(frame));
}

}  // namespace mpct::wire
