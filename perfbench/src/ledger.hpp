#pragma once

/// The per-layer ledger of a traced run.  Each figure comes from timing
/// calls into one module's public functions from this benchmark (probe
/// spans), or from the counters the serving tiers kept while the
/// workload ran.  README.md maps each to the end-to-end figure it
/// should move.

#include <vector>

#include "common.hpp"
#include "fleet.hpp"
#include "loadgen.hpp"
#include "streams.hpp"

namespace perfbench {

/// Request samples the probes run on, all drawn from the run's seed.
struct LedgerInputs {
  std::vector<Generated> point_mix;  ///< the `point` key population
  std::vector<Generated> fresh_mix;  ///< `mixed` low-reuse point queries
  std::vector<Generated> grid_mix;   ///< `grid` sweeps and curves
  std::vector<Generated> sim_mix;    ///< `mixed` simulations
};

LedgerInputs ledger_inputs(std::uint64_t seed);

/// Probe every layer on idle, dedicated servers; one span per timed
/// batch, named after the layer call.
std::vector<Metric> probe_layers(const LedgerInputs& inputs, SpanLog& spans);

/// Counters the workload's own servers kept: cache, queue, QoS, net and
/// cluster figures.  @p requests is the number of client requests sent.
std::vector<Metric> workload_counters(const Deployment& deployment,
                                      std::size_t requests);

}  // namespace perfbench
