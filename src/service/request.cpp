#include "service/request.hpp"

#include <type_traits>

namespace mpct::service {

namespace {

template <typename T>
std::size_t heap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t heap_bytes(const std::string& s) {
  // A short string lives inside the object; only a longer one owns a
  // heap block (capacity plus the terminator).
  static const std::size_t inline_capacity = std::string().capacity();
  return s.capacity() > inline_capacity ? s.capacity() + 1 : 0;
}

std::size_t heap_bytes(const arch::ArchitectureSpec& spec) {
  return heap_bytes(spec.name) + heap_bytes(spec.citation) +
         heap_bytes(spec.description) + heap_bytes(spec.category) +
         (spec.paper_name ? heap_bytes(*spec.paper_name) : 0);
}

}  // namespace

std::size_t payload_bytes(const ResponsePayload& payload) {
  const std::size_t held = std::visit(
      [](const auto& p) -> std::size_t {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, ClassifyResponse>) {
          return heap_bytes(p.spec) + heap_bytes(p.classification.note);
        } else if constexpr (std::is_same_v<T, RecommendResponse>) {
          std::size_t bytes = heap_bytes(p.recommendations);
          for (const explore::Recommendation& r : p.recommendations) {
            bytes += heap_bytes(r.rationale);
          }
          return bytes;
        } else if constexpr (std::is_same_v<T, CostResponse>) {
          return heap_bytes(p.points);
        } else if constexpr (std::is_same_v<T, SweepResponse>) {
          return heap_bytes(p.result.points) +
                 heap_bytes(p.result.pareto_front);
        } else if constexpr (std::is_same_v<T, FaultSweepResponse>) {
          return heap_bytes(p.result.spec.fault_rates) +
                 heap_bytes(p.result.points);
        } else if constexpr (std::is_same_v<T, SweepChunkResponse>) {
          return heap_bytes(p.points);
        } else if constexpr (std::is_same_v<T, FaultChunkResponse>) {
          return heap_bytes(p.outcomes);
        } else {
          static_assert(std::is_same_v<T, std::monostate> ||
                        std::is_same_v<T, SimulateResponse>);
          return 0;
        }
      },
      payload);
  return sizeof(ResponsePayload) + held;
}

std::string_view to_string(RequestType type) {
  switch (type) {
    case RequestType::Classify:
      return "classify";
    case RequestType::Recommend:
      return "recommend";
    case RequestType::Cost:
      return "cost";
    case RequestType::Sweep:
      return "sweep";
    case RequestType::FaultSweep:
      return "fault_sweep";
    case RequestType::SweepChunk:
      return "sweep_chunk";
    case RequestType::FaultChunk:
      return "fault_chunk";
    case RequestType::Simulate:
      return "simulate";
  }
  return "unknown";
}

}  // namespace mpct::service
