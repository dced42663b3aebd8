#pragma once

/// The load generator: one event-driven thread that waits on every
/// connection at once (ppoll, microsecond timeouts) and drives
/// closed-loop and open-loop streams over them.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "connection.hpp"
#include "streams.hpp"

namespace perfbench {

struct StreamPlan {
  StreamSource source;
  std::size_t connection = 0;
  /// Open loop: send on a fixed schedule of rate_per_s, whatever the
  /// server does.  Closed loop: keep `depth` requests outstanding.
  bool open = false;
  double rate_per_s = 0;
  int depth = 1;
  /// Index of the stream's first request in this phase.
  std::uint64_t first_index = 0;
};

/// Answers to one stream's one-off requests, folded into sums over
/// blocks of consecutive indices, so that checking them after the phase
/// takes fixed memory whatever the throughput.  A block whose sum
/// differs from that of its reference answers holds a wrong answer.
struct UniqueAnswers {
  static constexpr std::uint64_t kBlock = 64;
  /// Blocks allocated up front: room for 2^20 requests per stream.
  static constexpr std::size_t kInitialBlocks = std::size_t{1} << 14;

  /// Sum of answer_token() over each block's Ok answers.
  std::vector<std::uint64_t> sums;
  /// Indices answered non-Ok or not answered at all (nothing to check).
  std::vector<std::uint64_t> unanswered;
  std::uint64_t first = 0;  ///< the phase sent indices [first, end)
  std::uint64_t end = 0;
  std::uint64_t answers = 0;  ///< Ok answers folded in

  void add(std::uint64_t index, std::uint64_t hash);
};

/// What the answer to one-off request @p index, hashing to @p hash,
/// adds to its block's sum.
inline std::uint64_t answer_token(std::uint64_t index, std::uint64_t hash) {
  return mix64(hash ^ mix64(index));
}

struct PhaseOptions {
  double warmup_s = 0.5;
  double measure_s = 5;
  /// Traced runs record spans for measured client requests here (every
  /// k-th by index, about 20,000 requests per phase).
  SpanLog* spans = nullptr;
  /// Self-test hook: corrupt the first measured Ok answer, which the
  /// answer check must count as wrong.
  bool corrupt_one = false;
};

inline constexpr std::size_t kKindCount = 4;
inline constexpr std::size_t kSizeCount = 5;

struct PhaseResult {
  std::int64_t measure_start_ns = 0;
  std::int64_t measure_end_ns = 0;
  /// Latency (due time -> answer) of measured Ok answers, by kind and
  /// size class (index kind * kSizeCount + size), and by request type.
  std::vector<Histogram> latency = std::vector<Histogram>(kKindCount * kSizeCount);
  std::vector<Histogram> latency_by_type =
      std::vector<Histogram>(mpct::service::kRequestTypeCount);
  /// Measured Ok sweep answers by grid cells.
  std::map<std::uint64_t, std::uint64_t> sweep_cells;
  /// One-off answers by stream (empty for population streams).
  std::vector<UniqueAnswers> unique;
  std::uint64_t completed = 0;  ///< Ok answers arriving in the timed window
  std::size_t sent = 0;      ///< every request, warm-up included
  std::size_t measured = 0;  ///< requests due inside the timed window
  std::size_t failed = 0;    ///< measured requests answered non-Ok or lost
  std::size_t wrong = 0;     ///< answers differing from their reference
  std::size_t wrong_measured = 0;
  std::size_t abandoned = 0;   ///< unanswered when the drain timed out
  std::size_t references = 0;  ///< population references computed
  /// Open-loop lateness (send begin - due time) of measured sends, us.
  Histogram lateness_us;
  /// CPU over the timed window (seconds, user + system): the whole
  /// process, and the generator thread alone.
  double process_cpu_s = 0;
  double generator_cpu_s = 0;
  /// Peak resident set from the first send to the last answer, MB (0
  /// when the kernel does not let the peak be reset).
  double peak_rss_mb = 0;
  /// The first few non-Ok answers, as "kind: status".
  std::vector<std::string> errors;
};

/// Run @p plans for warmup_s + measure_s seconds, then wait for the
/// outstanding answers.
PhaseResult run_phase(const std::vector<WireConnection*>& connections,
                      const std::vector<StreamPlan>& plans,
                      const PhaseOptions& options);

}  // namespace perfbench
