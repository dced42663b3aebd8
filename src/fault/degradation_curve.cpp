#include "fault/degradation_curve.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "core/flexibility.hpp"
#include "core/split_range.hpp"
#include "fault/route_around.hpp"
#include "report/csv.hpp"
#include "report/svg.hpp"
#include "trace/trace.hpp"

namespace mpct::fault {

CurveSpec CurveSpec::normalized() const {
  CurveSpec spec = *this;
  if (spec.fault_rates.empty()) spec.fault_rates.push_back(0.0);
  spec.trials_per_rate = std::max(spec.trials_per_rate, 1);
  if (spec.noc_width <= 0 || spec.noc_height <= 0) {
    spec.noc_width = 0;
    spec.noc_height = 0;
  }
  return spec;
}

std::size_t CurveSpec::cell_count() const {
  const std::size_t rates = fault_rates.empty() ? 1 : fault_rates.size();
  return rates * static_cast<std::size_t>(std::max(trials_per_rate, 1));
}

CurveEvaluator::CurveEvaluator(const CurveSpec& spec,
                               const cost::ComponentLibrary& lib)
    : spec_(spec.normalized()), cells_(spec_.cell_count()), lib_(&lib) {
  shape_ = FabricShape::of(spec_.machine, spec_.bindings);
  shape_.noc_width = spec_.noc_width;
  shape_.noc_height = spec_.noc_height;
  // Per-spec invariant every trial consumes (the denominator of
  // flexibility retention) — hoisted so the batch path never re-scores
  // the pristine structure.
  original_score_ = flexibility_score(spec_.machine);
}

TrialOutcome CurveEvaluator::evaluate_cell(std::size_t index) const {
  trace::profile_count(trace::ProfilePoint::CurveTrial);
  const std::size_t trials =
      static_cast<std::size_t>(spec_.trials_per_rate);
  const double rate = spec_.fault_rates[index / trials];

  // Every trial owns an independent derived stream, so outcomes depend
  // only on (spec, cell index) — the thread-count-invariance the
  // service path relies on.
  const FaultSet faults = sample_faults(
      shape_, FaultRates::uniform(rate),
      Rng::derive_seed(spec_.seed, static_cast<std::uint64_t>(index)));
  const DegradeResult degraded =
      degrade(spec_.machine, shape_, faults, *lib_, spec_.bindings);

  TrialOutcome outcome;
  outcome.alive = degraded.alive();
  outcome.degraded_score = degraded.degraded_score;
  outcome.flexibility_retention = degraded.flexibility_retention();
  outcome.component_survival = degraded.component_survival;
  if (shape_.noc_nodes() > 0) {
    outcome.connectivity =
        build_degraded_noc(shape_, faults).reachable_fraction();
  } else {
    const std::int64_t total = shape_.total_ports();
    std::int64_t surviving = 0;
    for (const std::int64_t ports : degraded.surviving_ports) {
      surviving += ports;
    }
    outcome.connectivity = total <= 0 ? 1.0
                                      : static_cast<double>(surviving) /
                                            static_cast<double>(total);
  }
  return outcome;
}

void CurveEvaluator::evaluate_range(std::size_t begin, std::size_t end,
                                    TrialOutcome* out) const {
  trace::ScopedSpan span("fault.cells", trace::Category::Fault, "cells",
                         static_cast<std::int64_t>(end - begin));
  // Batch path: per-cell CurveTrial ticks become one bulk count plus a
  // timed SweepBatch hook over the whole block.
  trace::profile_count_n(trace::ProfilePoint::CurveTrial, end - begin);
  trace::ProfileTimer timer(trace::ProfilePoint::SweepBatch);
  const std::size_t trials =
      static_cast<std::size_t>(spec_.trials_per_rate);
  std::vector<Fault> faults;  // recycled across every trial in the range
  for (std::size_t i = begin; i < end; ++i) {
    const double rate = spec_.fault_rates[i / trials];
    // Identical derived stream per cell as the scalar path — outcomes
    // depend only on (spec, cell index).
    sample_faults_into(shape_, FaultRates::uniform(rate),
                       Rng::derive_seed(spec_.seed,
                                        static_cast<std::uint64_t>(i)),
                       faults);
    const detail::StructuralDegrade degraded =
        detail::structural_degrade(spec_.machine, shape_, faults);

    TrialOutcome outcome;
    outcome.alive = degraded.alive();
    outcome.degraded_score = degraded.degraded_score;
    if (!outcome.alive) {
      outcome.flexibility_retention = 0.0;
    } else if (original_score_ <= 0) {
      outcome.flexibility_retention = 1.0;
    } else {
      outcome.flexibility_retention =
          static_cast<double>(degraded.degraded_score) /
          static_cast<double>(original_score_);
    }
    outcome.component_survival = degraded.component_survival;
    if (shape_.noc_nodes() > 0) {
      outcome.connectivity =
          build_degraded_noc(shape_, FaultSet(faults)).reachable_fraction();
    } else {
      const std::int64_t total = shape_.total_ports();
      std::int64_t surviving = 0;
      for (const std::int64_t ports : degraded.surviving_ports) {
        surviving += ports;
      }
      outcome.connectivity = total <= 0 ? 1.0
                                        : static_cast<double>(surviving) /
                                              static_cast<double>(total);
    }
    out[i - begin] = outcome;
  }
}

std::vector<CurvePoint> CurveEvaluator::finalize(
    std::span<const TrialOutcome> outcomes) const {
  const std::size_t trials =
      static_cast<std::size_t>(spec_.trials_per_rate);
  std::vector<CurvePoint> points;
  points.reserve(spec_.fault_rates.size());
  for (std::size_t r = 0; r < spec_.fault_rates.size(); ++r) {
    CurvePoint point;
    point.fault_rate = spec_.fault_rates[r];
    point.trials = spec_.trials_per_rate;
    std::int64_t alive = 0;
    double flex = 0, conn = 0, survival = 0;
    // Fixed index-order summation: identical result no matter how the
    // cells were chunked across workers.
    for (std::size_t t = 0; t < trials; ++t) {
      const TrialOutcome& o = outcomes[r * trials + t];
      alive += o.alive ? 1 : 0;
      flex += o.flexibility_retention;
      conn += o.connectivity;
      survival += o.component_survival;
    }
    const double denom = static_cast<double>(trials);
    point.yield = static_cast<double>(alive) / denom;
    point.mean_flexibility = flex / denom;
    point.mean_connectivity = conn / denom;
    point.mean_survival = survival / denom;
    points.push_back(point);
  }
  return points;
}

CurveResult evaluate_curve(const CurveSpec& spec,
                           const cost::ComponentLibrary& lib,
                           unsigned threads) {
  const CurveEvaluator evaluator(spec, lib);
  const std::size_t cells = evaluator.cell_count();
  std::vector<TrialOutcome> outcomes(cells);

  // Clamp to the core count: trials are CPU-bound, so oversubscription
  // only adds context-switch overhead (see the sweep() clamp rationale).
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers =
      threads > 1
          ? std::min({static_cast<std::size_t>(threads), hw,
                      cells ? cells : std::size_t{1}})
          : 1;
  if (workers <= 1) {
    evaluator.evaluate_range(0, cells, outcomes.data());
  } else {
    // Contiguous disjoint slices; each worker writes only its own range.
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (const IndexRange range : split_range(cells, workers, 1)) {
      pool.emplace_back([&evaluator, &outcomes, range] {
        evaluator.evaluate_range(range.begin, range.end,
                                 outcomes.data() + range.begin);
      });
    }
    for (std::thread& t : pool) t.join();
  }

  CurveResult result;
  result.spec = evaluator.spec();
  result.points = evaluator.finalize(outcomes);
  return result;
}

namespace {

std::string fixed6(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

}  // namespace

std::string to_csv(const CurveResult& result) {
  report::CsvWriter csv;
  csv.add_row({"fault_rate", "trials", "yield", "flexibility_retention",
               "connectivity", "survival"});
  for (const CurvePoint& p : result.points) {
    csv.add_row({fixed6(p.fault_rate), std::to_string(p.trials),
                 fixed6(p.yield), fixed6(p.mean_flexibility),
                 fixed6(p.mean_connectivity), fixed6(p.mean_survival)});
  }
  return csv.str();
}

std::string to_svg(const CurveResult& result, const std::string& title) {
  std::vector<std::string> x_labels;
  x_labels.reserve(result.points.size());
  report::Series yield{"yield", {}};
  report::Series flex{"flexibility retention", {}};
  report::Series conn{"connectivity", {}};
  for (const CurvePoint& p : result.points) {
    char label[32];
    std::snprintf(label, sizeof(label), "%.3f", p.fault_rate);
    x_labels.push_back(label);
    yield.values.push_back(p.yield);
    flex.values.push_back(p.mean_flexibility);
    conn.values.push_back(p.mean_connectivity);
  }
  report::SvgOptions options;
  options.title = title.empty() ? "graceful degradation" : title;
  return report::svg_line_chart(x_labels, {yield, flex, conn}, options);
}

}  // namespace mpct::fault
