#pragma once

/// Shared plumbing of the serving benchmark: the clock, the seeded
/// random source every stream draws from, order statistics, the
/// latency histogram, the process's peak memory, the span log of
/// traced runs and the metric list a run prints.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call (one process-wide epoch, so every
/// timestamp in records and spans shares a time base).
std::int64_t now_ns();

/// splitmix64 finalizer: a bijective 64-bit mix.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Small deterministic generator.  Streams derive one per request from
/// (seed, stream tag, index), so request i of a stream is the same on
/// every run with that seed no matter how many requests came before it.
class Rng {
 public:
  explicit Rng(std::uint64_t state) : state_(state) {}
  Rng(std::uint64_t seed, std::uint64_t tag, std::uint64_t index)
      : state_(mix64(mix64(seed ^ mix64(tag)) + index)) {}

  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// FNV-1a 64 over raw bytes, chainable through @p hash.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/// Nearest-rank quantile of an ascending-sorted sample; 0 when empty.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

inline double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

/// Latency histogram in fixed memory: log-spaced buckets 1% wide from
/// 0.1 us to about 2000 s, so a run's storage does not grow with the
/// number of answers.  A quantile reads as its bucket's geometric
/// middle, within 0.5% of the exact order statistic.
class Histogram {
 public:
  void add(double us);
  void merge(const Histogram& other);
  std::uint64_t count() const { return count_; }
  double max() const { return max_; }
  /// Nearest-rank quantile; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr double kMinUs = 0.1;
  static constexpr double kGrowth = 1.01;
  static constexpr std::size_t kBuckets = 2400;
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t count_ = 0;
  double max_ = 0;
};

/// Reset this process's peak resident set (VmHWM) to its current
/// resident set; false when the kernel does not allow it.
bool reset_peak_rss();

/// This process's peak resident set (VmHWM) in MB.  getrusage's
/// ru_maxrss is not used: Linux carries it across exec, so it would
/// report the launcher's peak when that was larger.
double peak_rss_mb();

/// One timed interval of a traced run.  Ids start at 1; parent 0 means
/// a root span.  request is the stream index of the client request the
/// span belongs to (0 for ledger probes).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

/// In-memory span store of the traced run, written out once at the end.
/// Single-threaded: only the generator thread and the ledger record.
class SpanLog {
 public:
  std::uint64_t add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent = 0,
                    std::uint64_t request = 0) {
    spans_.push_back({name, start_ns, end_ns, spans_.size() + 1, parent,
                      request});
    return spans_.size();
  }
  /// Open a span whose end is set later by close() (parents of spans
  /// recorded meanwhile).
  std::uint64_t open(const char* name, std::uint64_t parent = 0) {
    const std::int64_t now = now_ns();
    return add(name, now, now, parent);
  }
  void close(std::uint64_t id) { spans_[id - 1].end_ns = now_ns(); }
  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON (complete "X" events, microsecond times).
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// A named figure of the run, printed with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Shortest decimal text that reads back as exactly @p value.
std::string number_text(double value);

}  // namespace perfbench
