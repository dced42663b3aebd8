#include "streams.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "arch/registry.hpp"
#include "arch/spec.hpp"
#include "core/classifier.hpp"
#include "core/taxonomy_index.hpp"
#include "service/fingerprint.hpp"

#include "common.hpp"

namespace perfbench {

using namespace mpct;
using Objective = explore::Requirements::Objective;

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::Point: return "point";
    case Kind::Simulate: return "simulate";
    case Kind::Sweep: return "sweep";
    case Kind::Curve: return "curve";
  }
  return "?";
}

const char* to_string(Size size) {
  switch (size) {
    case Size::None: return "-";
    case Size::Tiny: return "tiny";
    case Size::Small: return "small";
    case Size::Medium: return "medium";
    case Size::Large: return "large";
  }
  return "?";
}

namespace {

// Stream tags keep the per-request random draws of different streams
// independent under one seed.
constexpr std::uint64_t kHotTag = 0x686f74;
constexpr std::uint64_t kFreshTag = 0x667265;
constexpr std::uint64_t kSimTag = 0x73696d;
constexpr std::uint64_t kGridTag = 0x677269;

/// Table I rows that are implementable (11..14 are the 'NI' rows).
MachineClass implementable_class(Rng& rng) {
  int serial = 0;
  do {
    serial = 1 + static_cast<int>(rng.below(47));
  } while (serial >= 11 && serial <= 14);
  return taxonomy_index().by_serial(serial)->machine;
}

const arch::ArchitectureSpec& surveyed(Rng& rng) {
  const auto survey = arch::surveyed_architectures();
  return survey[rng.below(survey.size())];
}

Objective objective(Rng& rng) {
  return rng.below(2) ? Objective::MinArea : Objective::MinConfigBits;
}

service::CostRequest cost_request(Rng& rng, std::int64_t n) {
  service::CostRequest request;
  request.target = implementable_class(rng);
  request.options.n = n;
  request.options.m = n;
  request.options.v = std::int64_t{64} << rng.below(5);
  return request;
}

service::RecommendRequest recommend_request(Rng& rng, std::int64_t n) {
  service::RecommendRequest request;
  request.requirements.min_flexibility = static_cast<int>(rng.below(6));
  request.requirements.n = n;
  request.requirements.lut_budget = std::int64_t{256} << rng.below(4);
  request.requirements.objective = objective(rng);
  request.top_k = 5;
  return request;
}

Generated point(service::Request request) {
  return {std::move(request), Kind::Point, Size::None, 1, Generated::kUnique};
}

}  // namespace

StreamSource hot_point_stream(std::uint64_t seed) {
  std::vector<Generated> population;
  Rng rng(seed, kHotTag, ~std::uint64_t{0});
  for (int i = 0; i < 14; ++i) {
    population.push_back(point(service::ClassifyRequest::of(surveyed(rng))));
  }
  for (int i = 0; i < 10; ++i) {
    population.push_back(
        point(service::ClassifyRequest::of_adl(arch::to_adl(surveyed(rng)))));
  }
  for (int i = 0; i < 16; ++i) {
    population.push_back(point(cost_request(rng, std::int64_t{4} << rng.below(6))));
  }
  for (int i = 0; i < 8; ++i) {
    population.push_back(
        point(recommend_request(rng, std::int64_t{8} << rng.below(3))));
  }
  for (std::size_t i = 0; i < population.size(); ++i) {
    population[i].key = static_cast<std::uint32_t>(i);
  }
  auto shared = std::make_shared<const std::vector<Generated>>(population);
  return {"point",
          [seed, shared](std::uint64_t index) {
            Rng draw(seed, kHotTag, index);
            return (*shared)[draw.below(shared->size())];
          },
          std::move(population)};
}

StreamSource fresh_point_stream(std::uint64_t seed) {
  return {"point", [seed](std::uint64_t index) {
            Rng rng(seed, kFreshTag, index);
            const std::uint64_t pick = rng.below(100);
            const auto fresh_n = static_cast<std::int64_t>(2 + rng.below(1 << 16));
            if (pick < 45) {
              arch::ArchitectureSpec spec = surveyed(rng);
              spec.name += '#';
              spec.name += std::to_string(seed);
              spec.name += '.';
              spec.name += std::to_string(index);
              return point(service::ClassifyRequest::of(std::move(spec)));
            }
            if (pick < 85) return point(cost_request(rng, fresh_n));
            return point(recommend_request(rng, fresh_n));
          },
          {}};
}

StreamSource simulate_stream(std::uint64_t seed) {
  static const char* const kMachines[] = {"IUP",    "IAP-III", "IMP-IV", "DUP",
                                          "DMP-II", "ISP-II",  "USP"};
  std::vector<MachineClass> machines;
  for (const char* name : kMachines) {
    const auto parsed = parse_taxonomic_name(name);
    const auto mc = parsed ? canonical_class(*parsed) : std::nullopt;
    if (!mc) throw std::runtime_error(std::string("no class ") + name);
    machines.push_back(*mc);
  }
  return {"simulate", [seed, machines](std::uint64_t index) {
            Rng rng(seed, kSimTag, index);
            service::SimulateRequest request;
            request.target = machines[rng.below(machines.size())];
            workload::WorkloadSpec& spec = request.workload;
            switch (rng.below(3)) {
              case 0:
                spec.kernel = workload::Kernel::Stencil5;
                spec.size = 6 + 2 * static_cast<std::int32_t>(rng.below(2));
                spec.iterations = 2 + static_cast<std::int32_t>(rng.below(2));
                break;
              case 1:
                spec.kernel = workload::Kernel::Reduce;
                spec.size = 32 << rng.below(3);
                spec.iterations = 1;
                break;
              default:
                spec.kernel = workload::Kernel::Saxpy;
                spec.size = 32 << rng.below(3);
                spec.iterations = 1;
                spec.alpha = 1 + static_cast<std::int64_t>(rng.below(7));
                break;
            }
            // The spatial fabrics fit the stencil only at width 8.
            request.options.width =
                spec.kernel == workload::Kernel::Stencil5 || rng.below(2) ? 8 : 4;
            request.seed = rng.next();
            return Generated{std::move(request), Kind::Simulate, Size::None, 1,
                             Generated::kUnique};
          },
          {}};
}

namespace {

/// Share of each size class, cumulative, in percent.
Size draw_size(Rng& rng, const int (&cumulative)[3]) {
  const auto pick = static_cast<int>(rng.below(100));
  if (pick < cumulative[0]) return Size::Tiny;
  if (pick < cumulative[1]) return Size::Small;
  if (pick < cumulative[2]) return Size::Medium;
  return Size::Large;
}

Generated sweep_request(Rng& rng) {
  static const int kShares[3] = {30, 60, 84};
  const Size size = draw_size(rng, kShares);
  service::SweepRequest request;
  explore::SweepGrid& grid = request.grid;
  grid.base.min_flexibility = static_cast<int>(rng.below(4));
  grid.base.needs_pe_exchange = rng.below(8) == 0;
  grid.base.needs_shared_memory = rng.below(8) == 0;
  // Axis sizes of each class: n values x LUT budgets x objectives.
  int ns = 2, luts = 2, objectives = 1;
  switch (size) {
    case Size::Small: ns = 8, luts = 4, objectives = 2; break;
    case Size::Medium: ns = 24, luts = 8, objectives = 2; break;
    case Size::Large: ns = 64, luts = 11, objectives = 2; break;
    default: break;
  }
  // A random origin on both axes keeps every key unique.
  const auto n0 = static_cast<std::int64_t>(2 + 2 * rng.below(50000));
  const auto v0 = static_cast<std::int64_t>(64 + rng.below(4096));
  for (int i = 0; i < ns; ++i) grid.n_values.push_back(n0 + 2 * i);
  for (int i = 0; i < luts; ++i) grid.lut_budgets.push_back(v0 << i);
  grid.objectives = {Objective::MinConfigBits};
  if (objectives == 2) grid.objectives.push_back(Objective::MinArea);
  const std::uint64_t cells = grid.cell_count();
  return {std::move(request), Kind::Sweep, size, cells, Generated::kUnique};
}

Generated curve_request(Rng& rng) {
  static const int kShares[3] = {30, 60, 88};
  const Size size = draw_size(rng, kShares);
  service::FaultSweepRequest request;
  fault::CurveSpec& spec = request.spec;
  spec.machine = taxonomy_index().by_serial(1 + static_cast<int>(rng.below(47)))
                     ->machine;
  spec.bindings.n = std::int64_t{8} << rng.below(3);
  spec.bindings.m = spec.bindings.n;
  spec.bindings.v = 256;
  int rates = 1, trials = 4;
  switch (size) {
    case Size::Small: rates = 4, trials = 8; break;
    case Size::Medium: rates = 8, trials = 24; break;
    case Size::Large: rates = 21, trials = 48; break;
    default: break;
  }
  for (int i = 0; i < rates; ++i) spec.fault_rates.push_back(0.02 * (i + 1));
  spec.trials_per_rate = trials;
  spec.seed = rng.next();
  const std::uint64_t cells = spec.cell_count();
  return {std::move(request), Kind::Curve, size, cells, Generated::kUnique};
}

}  // namespace

StreamSource grid_stream(std::uint64_t seed) {
  return {"grid", [seed](std::uint64_t index) {
            Rng rng(seed, kGridTag, index);
            return rng.below(2) ? curve_request(rng) : sweep_request(rng);
          },
          {}};
}

std::uint64_t stream_hash(const StreamSource& source, std::uint64_t count) {
  std::uint64_t hash = fnv1a(source.name.data(), source.name.size());
  for (std::uint64_t i = 0; i < count; ++i) {
    const Generated g = source.at(i);
    const service::Fingerprint key = service::fingerprint(g.request);
    hash = fnv1a(&key, sizeof(key), hash);
  }
  return hash;
}

}  // namespace perfbench
