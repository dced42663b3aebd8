#include "verify.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "explore/sweep.hpp"
#include "fault/degradation_curve.hpp"
#include "service/engine.hpp"
#include "service/fingerprint.hpp"
#include "wire/protocol.hpp"
#include "workload/runner.hpp"

namespace perfbench {

using namespace mpct;

std::uint64_t payload_hash(
    const std::shared_ptr<const service::ResponsePayload>& payload) {
  service::QueryResponse canonical;
  canonical.payload = payload;
  const std::vector<std::uint8_t> bytes =
      wire::encode_response_frame(0, canonical);
  return fnv1a(bytes.data(), bytes.size());
}

namespace {

template <typename T>
service::QueryResponse ok_response(T payload) {
  service::QueryResponse response;
  response.payload =
      std::make_shared<const service::ResponsePayload>(std::move(payload));
  return response;
}

}  // namespace

service::QueryResponse reference_answer(const service::Request& request) {
  if (const auto* sweep = std::get_if<service::SweepRequest>(&request)) {
    return ok_response(service::SweepResponse{explore::sweep(sweep->grid)});
  }
  if (const auto* curve = std::get_if<service::FaultSweepRequest>(&request)) {
    return ok_response(
        service::FaultSweepResponse{fault::evaluate_curve(curve->spec)});
  }
  if (const auto* sim = std::get_if<service::SimulateRequest>(&request)) {
    const auto* mc = std::get_if<MachineClass>(&sim->target);
    if (mc != nullptr && sim->faults.empty()) {
      return ok_response(service::SimulateResponse{workload::run_workload(
          sim->workload, *mc, sim->options, sim->faults, sim->seed)});
    }
  }
  // Point queries (and any other shape): the engine's own sequential
  // path, with no workers and no cache.
  service::EngineOptions options;
  options.worker_threads = 0;
  options.enable_cache = false;
  thread_local service::QueryEngine engine(options);
  return engine.execute(request);
}

namespace {

/// Run @p work(i) for i in [0, count) on @p threads threads.
template <typename Work>
void parallel_for(std::size_t count, unsigned threads, Work&& work) {
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next++; i < count; i = next++) work(i);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(drain);
  drain();
  for (std::thread& thread : pool) thread.join();
}

/// Hash of the reference answer, 0 when the reference fails or (for a
/// simulation) does not reproduce the kernel's reference output.
std::uint64_t reference_hash(const service::Request& request) {
  const service::QueryResponse reference = reference_answer(request);
  if (!reference.ok()) return 0;
  if (const service::SimulateResponse* sim = reference.simulate()) {
    if (!sim->result.matches_reference) return 0;
  }
  return payload_hash(reference.payload);
}

}  // namespace

std::vector<std::uint64_t> reference_hashes(
    const std::vector<Generated>& population, unsigned threads) {
  std::vector<std::uint64_t> hashes(population.size());
  parallel_for(population.size(), threads, [&](std::size_t i) {
    hashes[i] = reference_hash(population[i].request);
  });
  return hashes;
}

VerifyResult verify_unique(const std::vector<UniqueAnswers>& answers,
                           const std::vector<StreamSource>& sources,
                           unsigned threads) {
  VerifyResult result;
  for (std::size_t s = 0; s < answers.size(); ++s) {
    const UniqueAnswers& a = answers[s];
    if (a.end == a.first || !sources[s].population.empty()) continue;
    std::vector<std::uint64_t> unanswered = a.unanswered;
    std::sort(unanswered.begin(), unanswered.end());
    const std::uint64_t blocks =
        (a.end - a.first + UniqueAnswers::kBlock - 1) / UniqueAnswers::kBlock;
    std::atomic<std::size_t> wrong{0};
    parallel_for(blocks, threads, [&](std::size_t b) {
      const std::uint64_t begin = a.first + b * UniqueAnswers::kBlock;
      const std::uint64_t end = std::min(a.end, begin + UniqueAnswers::kBlock);
      std::uint64_t expected = 0;
      bool reference_failed = false;
      for (std::uint64_t index = begin; index < end; ++index) {
        if (std::binary_search(unanswered.begin(), unanswered.end(), index)) continue;
        const std::uint64_t hash = reference_hash(sources[s].at(index).request);
        reference_failed = reference_failed || hash == 0;
        expected += answer_token(index, hash);
      }
      const std::uint64_t served = b < a.sums.size() ? a.sums[b] : 0;
      if (reference_failed || served != expected) ++wrong;
    });
    result.checked += a.answers;
    result.wrong += wrong;
  }
  return result;
}

}  // namespace perfbench
