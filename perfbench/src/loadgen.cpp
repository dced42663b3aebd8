#include "loadgen.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <cerrno>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "verify.hpp"

namespace perfbench {

using namespace mpct;

namespace {

double cpu_seconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

const char* span_name(Kind kind) {
  switch (kind) {
    case Kind::Point: return "client.point";
    case Kind::Simulate: return "client.simulate";
    case Kind::Sweep: return "client.sweep";
    case Kind::Curve: return "client.curve";
  }
  return "client";
}

/// Longest wait for outstanding answers after the last send.
constexpr std::int64_t kDrainTimeoutNs = 20'000'000'000;
/// Longest single wait while only answers are awaited.
constexpr std::int64_t kIdleWaitNs = 10'000'000;
/// A traced phase records spans for about this many measured requests,
/// every k-th by index, so a fast phase's trace stays a few megabytes.
constexpr double kTracedRequests = 20000;

/// A request on the wire.
struct InFlight {
  std::uint32_t stream = 0;
  std::uint32_t key = Generated::kUnique;
  std::uint64_t index = 0;
  Kind kind = Kind::Point;
  Size size = Size::None;
  service::RequestType type = service::RequestType::Classify;
  std::uint32_t cells = 1;
  bool measured = false;
  std::int64_t sched_ns = 0;
  std::int64_t send_begin_ns = 0;
  std::int64_t sent_ns = 0;
};

struct StreamState {
  std::uint64_t next_index = 0;
  std::int64_t next_due_ns = 0;
  std::int64_t period_ns = 0;
  int outstanding = 0;
  /// Reference answer hashes of the population, by slot.
  std::vector<std::uint64_t> references;
};

}  // namespace

void UniqueAnswers::add(std::uint64_t index, std::uint64_t hash) {
  const std::uint64_t block = (index - first) / kBlock;
  if (block >= sums.size()) sums.resize(2 * block + 1, 0);
  sums[block] += answer_token(index, hash);
  ++answers;
}

PhaseResult run_phase(const std::vector<WireConnection*>& connections,
                      const std::vector<StreamPlan>& plans,
                      const PhaseOptions& options) {
  PhaseResult result;
  std::vector<StreamState> states(plans.size());
  result.unique.resize(plans.size());
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t s = 0; s < plans.size(); ++s) {
    states[s].references = reference_hashes(plans[s].source.population, threads);
    result.references += states[s].references.size();
    result.unique[s].first = plans[s].first_index;
    if (plans[s].source.population.empty()) {
      result.unique[s].sums.assign(UniqueAnswers::kInitialBlocks, 0);
    }
  }
  // Wake-ups within a microsecond of the timeout, not the default 50 us.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  std::vector<std::unordered_map<std::uint64_t, InFlight>> in_flight(
      connections.size());
  std::vector<pollfd> fds(connections.size());
  for (std::size_t c = 0; c < connections.size(); ++c) {
    fds[c] = {connections[c]->fd(), POLLIN, 0};
  }
  const bool rss_reset = reset_peak_rss();

  const std::int64_t begin = now_ns();
  result.measure_start_ns = begin + static_cast<std::int64_t>(options.warmup_s * 1e9);
  result.measure_end_ns =
      result.measure_start_ns + static_cast<std::int64_t>(options.measure_s * 1e9);
  for (std::size_t s = 0; s < plans.size(); ++s) {
    states[s].next_index = plans[s].first_index;
    states[s].next_due_ns = begin;
    if (plans[s].open) {
      states[s].period_ns = static_cast<std::int64_t>(1e9 / plans[s].rate_per_s);
    }
  }

  const auto send = [&](std::size_t s, std::int64_t sched) {
    const StreamPlan& plan = plans[s];
    StreamState& state = states[s];
    const Generated generated = plan.source.at(state.next_index);
    InFlight f;
    f.stream = static_cast<std::uint32_t>(s);
    f.key = generated.key;
    f.index = state.next_index++;
    f.kind = generated.kind;
    f.size = generated.size;
    f.type = service::request_type(generated.request);
    f.cells = static_cast<std::uint32_t>(generated.cells);
    f.sched_ns = sched;
    f.measured = sched >= result.measure_start_ns && sched < result.measure_end_ns;
    f.send_begin_ns = now_ns();
    const std::uint64_t id = connections[plan.connection]->send(generated.request);
    f.sent_ns = now_ns();
    if (plan.open && f.measured) {
      result.lateness_us.add(static_cast<double>(f.send_begin_ns - sched) / 1e3);
    }
    ++result.sent;
    result.measured += f.measured;
    ++state.outstanding;
    in_flight[plan.connection].emplace(id, f);
  };

  bool corrupt_pending = options.corrupt_one;
  std::uint64_t warmup_answers = 0;
  std::uint64_t span_stride = 1;
  const auto complete = [&](const InFlight& f, const service::QueryResponse& r) {
    const std::int64_t done = now_ns();
    --states[f.stream].outstanding;
    warmup_answers += done < result.measure_start_ns;
    if (options.spans && f.measured && f.index % span_stride == 0) {
      const std::uint64_t root =
          options.spans->add(span_name(f.kind), f.sched_ns, done, 0, f.index);
      options.spans->add("client.send", f.send_begin_ns, f.sent_ns, root, f.index);
    }
    if (!r.ok()) {
      result.failed += f.measured;
      if (f.key == Generated::kUnique) {
        result.unique[f.stream].unanswered.push_back(f.index);
      }
      if (result.errors.size() < 5) {
        result.errors.push_back(std::string(to_string(f.kind)) + ": " +
                                r.status.to_string());
      }
      return;
    }
    std::uint64_t hash = payload_hash(r.payload);
    if (corrupt_pending && f.measured) {
      hash ^= 1;
      corrupt_pending = false;
    }
    if (f.key != Generated::kUnique) {
      if (hash != states[f.stream].references[f.key]) {
        ++result.wrong;
        result.wrong_measured += f.measured;
      }
    } else {
      // A simulation that does not reproduce its kernel's reference
      // output is wrong whatever it hashes to; 0 is no reference's hash.
      const service::SimulateResponse* sim = r.simulate();
      const bool reproduced = sim == nullptr || sim->result.matches_reference;
      result.unique[f.stream].add(f.index, reproduced ? hash : 0);
    }
    result.completed += done >= result.measure_start_ns && done < result.measure_end_ns;
    if (f.measured) {
      const double latency_us = static_cast<double>(done - f.sched_ns) / 1e3;
      result.latency[static_cast<std::size_t>(f.kind) * kSizeCount +
                     static_cast<std::size_t>(f.size)]
          .add(latency_us);
      result.latency_by_type[static_cast<std::size_t>(f.type)].add(latency_us);
      if (f.kind == Kind::Sweep) ++result.sweep_cells[f.cells];
    }
  };

  bool cpu_started = false;
  bool cpu_stopped = false;
  double process_cpu0 = 0, generator_cpu0 = 0;
  std::vector<std::pair<std::uint64_t, service::QueryResponse>> answers;
  while (true) {
    const std::int64_t now = now_ns();
    if (!cpu_started && now >= result.measure_start_ns) {
      cpu_started = true;
      if (options.warmup_s > 0) {
        const double expected = static_cast<double>(warmup_answers) /
                                options.warmup_s * options.measure_s;
        span_stride = static_cast<std::uint64_t>(
            std::max(1.0, std::ceil(expected / kTracedRequests)));
      }
      process_cpu0 = cpu_seconds(RUSAGE_SELF);
      generator_cpu0 = cpu_seconds(RUSAGE_THREAD);
    }
    const bool sending = now < result.measure_end_ns;
    if (!sending && !cpu_stopped) {
      cpu_stopped = true;
      result.process_cpu_s = cpu_seconds(RUSAGE_SELF) - process_cpu0;
      result.generator_cpu_s = cpu_seconds(RUSAGE_THREAD) - generator_cpu0;
    }

    std::int64_t wake = now + kIdleWaitNs;
    if (sending) {
      for (std::size_t s = 0; s < plans.size(); ++s) {
        StreamState& state = states[s];
        if (plans[s].open) {
          while (state.next_due_ns <= now &&
                 state.next_due_ns < result.measure_end_ns) {
            send(s, state.next_due_ns);
            state.next_due_ns += state.period_ns;
          }
          wake = std::min(wake, state.next_due_ns);
        } else {
          while (state.outstanding < plans[s].depth) send(s, now_ns());
        }
      }
      // Wake for the next phase boundary too (CPU snapshot, last send).
      wake = std::min(wake, cpu_started ? result.measure_end_ns
                                        : result.measure_start_ns);
    }

    std::size_t outstanding = 0;
    for (const auto& map : in_flight) outstanding += map.size();
    if (!sending && outstanding == 0) break;
    if (!sending && now - result.measure_end_ns > kDrainTimeoutNs) {
      result.abandoned = outstanding;
      for (const auto& map : in_flight) {
        for (const auto& [id, f] : map) {
          if (f.key == Generated::kUnique) {
            result.unique[f.stream].unanswered.push_back(f.index);
          }
        }
      }
      break;
    }

    const std::int64_t wait_ns = std::max<std::int64_t>(0, wake - now_ns());
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    if (ready <= 0) continue;
    for (std::size_t c = 0; c < connections.size(); ++c) {
      if (fds[c].revents == 0) continue;
      answers.clear();
      connections[c]->receive(answers);
      for (const auto& [id, response] : answers) {
        const auto it = in_flight[c].find(id);
        if (it == in_flight[c].end()) continue;
        complete(it->second, response);
        in_flight[c].erase(it);
      }
    }
  }
  if (rss_reset) result.peak_rss_mb = peak_rss_mb();
  for (std::size_t s = 0; s < plans.size(); ++s) {
    result.unique[s].end = states[s].next_index;
  }
  result.failed += result.abandoned;
  return result;
}

}  // namespace perfbench
