#pragma once

/// Answer checking.  Every served payload is hashed on arrival (its
/// canonical wire encoding) and compared with the hash of a reference
/// answer computed once per distinct request: before timing for
/// streams drawn from a fixed population, after the timed phase for
/// streams whose every request is new (folded into per-block sums on
/// arrival, see UniqueAnswers).

#include <cstdint>
#include <memory>
#include <vector>

#include "service/request.hpp"

#include "loadgen.hpp"
#include "streams.hpp"

namespace perfbench {

/// FNV-1a of the payload's wire encoding (status Ok, no cache or
/// latency fields), so two answers hash equal iff they encode equal.
std::uint64_t payload_hash(
    const std::shared_ptr<const mpct::service::ResponsePayload>& payload);

/// The reference answer: explore::sweep for sweeps,
/// fault::evaluate_curve for curves, workload::run_workload for
/// simulations, and an inline engine (no workers, cache off) for point
/// queries.  Non-Ok when the reference itself fails.
mpct::service::QueryResponse reference_answer(
    const mpct::service::Request& request);

/// Reference answer hashes of @p population, by slot, computed on
/// @p threads threads.  A failing reference hashes to 0.
std::vector<std::uint64_t> reference_hashes(
    const std::vector<Generated>& population, unsigned threads);

struct VerifyResult {
  std::size_t checked = 0;  ///< one-off answers compared to a reference
  std::size_t wrong = 0;    ///< blocks of them holding a wrong answer
};

/// Check a phase's one-off answers against their references, block by
/// block (UniqueAnswers).  @p sources are indexed like @p answers.
VerifyResult verify_unique(const std::vector<UniqueAnswers>& answers,
                           const std::vector<StreamSource>& sources,
                           unsigned threads);

}  // namespace perfbench
