#include "ledger.hpp"

#include <array>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/classifier.hpp"
#include "cost/cost_plan.hpp"
#include "explore/recommend.hpp"
#include "explore/sweep.hpp"
#include "fault/degradation_curve.hpp"
#include "qos/wfq_queue.hpp"
#include "service/fingerprint.hpp"
#include "wire/protocol.hpp"
#include "workload/runner.hpp"

#include "verify.hpp"

namespace perfbench {

using namespace mpct;

namespace {

/// Results flow into this so the optimizer cannot drop a timed call.
volatile std::uint64_t g_sink = 0;

template <typename T>
void keep(const T& value) {
  g_sink = g_sink + static_cast<std::uint64_t>(value);
}

/// Time @p reps batches of @p items calls of @p body(i), one span per
/// batch; the median batch's per-call time in ns.
template <typename Body>
double per_call_ns(SpanLog& spans, std::uint64_t parent, const char* name,
                   std::size_t items, int reps, Body&& body) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < items; ++i) body(i);
    const std::int64_t end = now_ns();
    spans.add(name, start, end, parent);
    per_call.push_back(static_cast<double>(end - start) /
                       static_cast<double>(items));
  }
  return median_of(per_call);
}

unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

struct Collected {
  std::vector<Metric> metrics;
  void put(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

void probe_kernels(const LedgerInputs& in, SpanLog& spans, Collected& out) {
  const cost::ComponentLibrary& lib = cost::ComponentLibrary::default_library();

  {  // core: classify the point population's machine classes.
    const std::uint64_t root = spans.open("ledger.core");
    std::vector<MachineClass> machines;
    for (const Generated& g : in.point_mix) {
      const auto* classify = std::get_if<service::ClassifyRequest>(&g.request);
      if (classify == nullptr) continue;
      if (const auto* spec = std::get_if<arch::ArchitectureSpec>(&classify->input)) {
        machines.push_back(spec->machine_class());
      }
    }
    out.put("core.classify_ns",
            per_call_ns(spans, root, "core.classify", 20000, 9,
                        [&](std::size_t i) {
                          keep(classify(machines[i % machines.size()]).ok());
                        }),
            "ns");
    spans.close(root);
  }

  {  // cost: CostPlan::evaluate at the point population's design points.
    const std::uint64_t root = spans.open("ledger.cost");
    std::vector<std::pair<cost::CostPlan, cost::EstimateOptions>> plans;
    for (const Generated& g : in.point_mix) {
      const auto* request = std::get_if<service::CostRequest>(&g.request);
      if (request == nullptr) continue;
      const auto* mc = std::get_if<MachineClass>(&request->target);
      if (mc == nullptr) continue;
      plans.emplace_back(
          cost::CostPlan(*mc, lib, request->options.include_ip_dp_switch),
          request->options);
    }
    out.put("cost.plan_evaluate_ns",
            per_call_ns(spans, root, "cost.plan_evaluate", 20000, 9,
                        [&](std::size_t i) {
                          const auto& [plan, options] = plans[i % plans.size()];
                          keep(plan.evaluate(options).config_bits);
                        }),
            "ns");
    spans.close(root);
  }

  const std::uint64_t explore_root = spans.open("ledger.explore");
  {
    std::vector<explore::Requirements> wants;
    for (const Generated& g : in.point_mix) {
      if (const auto* r = std::get_if<service::RecommendRequest>(&g.request)) {
        wants.push_back(r->requirements);
      }
    }
    out.put("explore.recommend_us",
            per_call_ns(spans, explore_root, "explore.recommend",
                        wants.size() * 16, 9,
                        [&](std::size_t i) {
                          keep(explore::recommend(wants[i % wants.size()]).size());
                        }) /
                1e3,
            "us");
  }
  std::vector<explore::SweepGrid> grids;
  std::vector<explore::SweepResult> large_sweeps;
  std::uint64_t grid_cells = 0;
  for (const Generated& g : in.grid_mix) {
    if (const auto* r = std::get_if<service::SweepRequest>(&g.request)) {
      grids.push_back(r->grid);
      grid_cells += g.cells;
      if (g.size == Size::Large) large_sweeps.push_back(explore::sweep(r->grid));
    }
  }
  {
    const auto sweep_all = [&](unsigned threads) {
      return per_call_ns(spans, explore_root,
                         threads == 1 ? "explore.sweep.1" : "explore.sweep.n",
                         1, 5, [&](std::size_t) {
                           for (const explore::SweepGrid& grid : grids) {
                             keep(explore::sweep(grid, lib, threads).points.size());
                           }
                         });
    };
    const double one_ns = sweep_all(1);
    const double many_ns = sweep_all(host_threads());
    out.put("explore.sweep_cells_per_s",
            static_cast<double>(grid_cells) / (one_ns / 1e9), "1/s");
    out.put("explore.sweep_speedup", one_ns / many_ns, "x");
    out.put("explore.pareto_merge_us",
            per_call_ns(spans, explore_root, "explore.pareto_front",
                        large_sweeps.size() * 8, 9,
                        [&](std::size_t i) {
                          keep(explore::pareto_front(
                                   large_sweeps[i % large_sweeps.size()].points)
                                   .size());
                        }) /
                1e3,
            "us");
  }
  spans.close(explore_root);

  {  // fault: the grid mix's curves, sequential and on every core.
    const std::uint64_t root = spans.open("ledger.fault");
    std::vector<fault::CurveSpec> curves;
    std::uint64_t curve_cells = 0;
    std::vector<std::pair<fault::CurveEvaluator, std::vector<fault::TrialOutcome>>>
        large;
    for (const Generated& g : in.grid_mix) {
      const auto* r = std::get_if<service::FaultSweepRequest>(&g.request);
      if (r == nullptr) continue;
      curves.push_back(r->spec);
      curve_cells += g.cells;
      if (g.size == Size::Large) {
        fault::CurveEvaluator evaluator(r->spec);
        std::vector<fault::TrialOutcome> outcomes(evaluator.cell_count());
        evaluator.evaluate_range(0, outcomes.size(), outcomes.data());
        large.emplace_back(std::move(evaluator), std::move(outcomes));
      }
    }
    const auto curve_all = [&](unsigned threads) {
      return per_call_ns(spans, root,
                         threads == 1 ? "fault.curve.1" : "fault.curve.n", 1, 3,
                         [&](std::size_t) {
                           for (const fault::CurveSpec& spec : curves) {
                             keep(fault::evaluate_curve(spec, lib, threads)
                                      .points.size());
                           }
                         });
    };
    const double one_ns = curve_all(1);
    const double many_ns = curve_all(host_threads());
    out.put("fault.curve_cells_per_s",
            static_cast<double>(curve_cells) / (one_ns / 1e9), "1/s");
    out.put("fault.curve_speedup", one_ns / many_ns, "x");
    out.put("fault.finalize_us",
            per_call_ns(spans, root, "fault.finalize", large.size() * 8, 9,
                        [&](std::size_t i) {
                          const auto& [evaluator, outcomes] = large[i % large.size()];
                          keep(evaluator.finalize(outcomes).size());
                        }) /
                1e3,
            "us");
    spans.close(root);
  }

  {  // workload: the mixed workload's simulations.
    const std::uint64_t root = spans.open("ledger.workload");
    std::int64_t cycles = 0;
    const double run_ns = per_call_ns(
        spans, root, "workload.run_workload", in.sim_mix.size(), 3,
        [&](std::size_t i) {
          const auto& r = std::get<service::SimulateRequest>(in.sim_mix[i].request);
          const workload::WorkloadResult result = workload::run_workload(
              r.workload, std::get<MachineClass>(r.target), r.options, r.faults,
              r.seed);
          cycles += result.cycles;
        });
    out.put("workload.run_us", run_ns / 1e3, "us");
    out.put("workload.sim_cycles_per_s",
            static_cast<double>(cycles) / 3.0 /
                (run_ns * static_cast<double>(in.sim_mix.size()) / 1e9),
            "1/s");
    spans.close(root);
  }

  {  // wire: frames of the point population, and large sweep answers.
    const std::uint64_t root = spans.open("ledger.wire");
    std::vector<std::vector<std::uint8_t>> requests, responses;
    for (const Generated& g : in.point_mix) {
      requests.push_back(wire::encode_request_frame(1, g.request));
      responses.push_back(
          wire::encode_response_frame(1, reference_answer(g.request)));
    }
    std::vector<service::QueryResponse> answers;
    for (const Generated& g : in.point_mix) answers.push_back(reference_answer(g.request));
    const std::size_t n = in.point_mix.size();
    out.put("wire.request_encode_ns",
            per_call_ns(spans, root, "wire.encode_request", n * 200, 9,
                        [&](std::size_t i) {
                          keep(wire::encode_request_frame(i, in.point_mix[i % n].request)
                                   .size());
                        }),
            "ns");
    out.put("wire.request_decode_ns",
            per_call_ns(spans, root, "wire.decode_request", n * 200, 9,
                        [&](std::size_t i) {
                          const auto& f = requests[i % n];
                          keep(wire::decode_request_frame(f.data(), f.size()).ok());
                        }),
            "ns");
    out.put("wire.response_encode_ns",
            per_call_ns(spans, root, "wire.encode_response", n * 200, 9,
                        [&](std::size_t i) {
                          keep(wire::encode_response_frame(i, answers[i % n]).size());
                        }),
            "ns");
    out.put("wire.response_decode_ns",
            per_call_ns(spans, root, "wire.decode_response", n * 200, 9,
                        [&](std::size_t i) {
                          const auto& f = responses[i % n];
                          keep(wire::decode_response_frame(f.data(), f.size()).ok());
                        }),
            "ns");
    std::vector<service::QueryResponse> sweep_answers;
    for (const explore::SweepResult& result : large_sweeps) {
      service::QueryResponse response;
      response.payload = std::make_shared<const service::ResponsePayload>(
          service::SweepResponse{result});
      sweep_answers.push_back(std::move(response));
    }
    const double cells = static_cast<double>(large_sweeps.front().points.size());
    out.put("wire.sweep_response_encode_ns_per_cell",
            per_call_ns(spans, root, "wire.encode_sweep_response",
                        sweep_answers.size() * 4, 9,
                        [&](std::size_t i) {
                          keep(wire::encode_response_frame(
                                   i, sweep_answers[i % sweep_answers.size()])
                                   .size());
                        }) /
                cells,
            "ns");
    spans.close(root);
  }
}

void probe_serving(const LedgerInputs& in, SpanLog& spans, Collected& out) {
  const std::size_t all = in.point_mix.size();
  const std::uint64_t service_root = spans.open("ledger.service");
  out.put("service.fingerprint_ns",
          per_call_ns(spans, service_root, "service.fingerprint", all * 200, 9,
                      [&](std::size_t i) {
                        keep(service::fingerprint(in.point_mix[i % all].request));
                      }),
          "ns");
  // The serving-path probes decompose a cached classify, the request
  // the point ledger line explains.
  std::vector<service::Request> hot;
  for (const Generated& g : in.point_mix) {
    if (std::holds_alternative<service::ClassifyRequest>(g.request)) {
      hot.push_back(g.request);
    }
  }
  const std::size_t n = hot.size();

  double execute_hit_ns = 0;
  {
    service::EngineOptions options;
    options.worker_threads = 0;
    service::QueryEngine inline_engine(options);
    for (const service::Request& r : hot) keep(inline_engine.execute(r).ok());
    execute_hit_ns = per_call_ns(spans, service_root, "service.execute_hit",
                                 n * 50, 9, [&](std::size_t i) {
                                   keep(inline_engine.execute(hot[i % n]).ok());
                                 });
    out.put("service.execute_hit_ns", execute_hit_ns, "ns");
  }
  {
    service::EngineOptions options;
    options.worker_threads = 0;
    options.enable_cache = false;
    service::QueryEngine cold(options);
    const std::size_t m = in.fresh_mix.size();
    out.put("service.execute_miss_ns",
            per_call_ns(spans, service_root, "service.execute_miss", m, 9,
                        [&](std::size_t i) {
                          keep(cold.execute(in.fresh_mix[i].request).ok());
                        }),
            "ns");
  }
  spans.close(service_root);

  {
    const std::uint64_t root = spans.open("ledger.qos");
    qos::WfqQueue<std::uint64_t> queue(1024);
    out.put("qos.wfq_push_pop_ns",
            per_call_ns(spans, root, "qos.wfq_push_pop", 100000, 9,
                        [&](std::size_t i) {
                          std::uint64_t item = i;
                          queue.try_push(qos::PriorityClass::Interactive, item);
                          keep(*queue.try_pop());
                        }),
            "ns");
    spans.close(root);
  }

  {  // One idle server: engine queue hop, ping, client call overhead.
    const std::uint64_t root = spans.open("ledger.net");
    Fleet fleet(FleetShape{});
    service::QueryEngine& engine = *fleet.engines().front();
    auto client = connect_client(fleet.front_port());
    for (const service::Request& r : hot) keep(client->call(r).ok());
    const double submit_ns = per_call_ns(
        spans, root, "service.submit_get", n * 10, 9,
        [&](std::size_t i) { keep(engine.submit(hot[i % n]).get().ok()); });
    out.put("service.queue_hop_us", (submit_ns - execute_hit_ns) / 1e3, "us");
    std::string error;
    const double ping_ns = per_call_ns(spans, root, "net.ping", 200, 9,
                                       [&](std::size_t) {
                                         keep(client->ping(std::chrono::seconds(5), error));
                                       });
    out.put("net.ping_rtt_us", ping_ns / 1e3, "us");
    const double call_ns = per_call_ns(
        spans, root, "net.call", n * 4, 9,
        [&](std::size_t i) { keep(client->call(hot[i % n]).ok()); });
    out.put("net.call_overhead_us", (call_ns - submit_ns) / 1e3, "us");
    spans.close(root);
  }

  {  // Proxy + two backends without a pinger, so frame counts are exact.
    const std::uint64_t root = spans.open("ledger.cluster");
    FleetShape shape;
    shape.backends = 2;
    shape.proxy = true;
    shape.proxy_pinger = false;
    Fleet fleet(shape);
    auto via_proxy = connect_client(fleet.front_port());
    auto direct = connect_client(fleet.backend_port(0));
    for (const service::Request& r : hot) {
      keep(via_proxy->call(r).ok());
      keep(direct->call(r).ok());
    }
    const double proxy_ns = per_call_ns(
        spans, root, "cluster.call_via_proxy", n * 4, 9,
        [&](std::size_t i) { keep(via_proxy->call(hot[i % n]).ok()); });
    const double direct_ns = per_call_ns(
        spans, root, "cluster.call_direct", n * 4, 9,
        [&](std::size_t i) { keep(direct->call(hot[i % n]).ok()); });
    out.put("cluster.proxy_hop_us", (proxy_ns - direct_ns) / 1e3, "us");

    const auto backend_frames = [&] {
      std::uint64_t frames = 0;
      for (service::QueryEngine* engine : fleet.engines()) {
        frames += engine->metrics().net_frames_in.value();
      }
      return frames;
    };
    for (const Size size : {Size::Tiny, Size::Large}) {
      for (const Generated& g : in.grid_mix) {
        if (g.kind != Kind::Sweep || g.size != size) continue;
        const std::uint64_t before = backend_frames();
        const std::int64_t start = now_ns();
        keep(via_proxy->call(g.request).ok());
        spans.add("cluster.sweep_scatter", start, now_ns(), root);
        out.put(size == Size::Tiny ? "cluster.rpcs_per_sweep.small"
                                   : "cluster.rpcs_per_sweep.large",
                static_cast<double>(backend_frames() - before), "count");
        break;
      }
    }
    spans.close(root);
  }
}

/// p50 in us of the merged latency histograms of one request type.
double engine_p50_us(const std::vector<service::QueryEngine*>& engines,
                     service::RequestType type) {
  std::array<std::uint64_t, service::LatencyHistogram::kBucketCount> counts{};
  std::uint64_t total = 0;
  for (const service::QueryEngine* engine : engines) {
    const auto buckets = engine->metrics().latency(type).buckets();
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += buckets.counts[i];
    total += buckets.count;
  }
  if (total == 0) return 0;
  const double target = 0.5 * static_cast<double>(total);
  double seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (seen + static_cast<double>(counts[i]) >= target && counts[i] > 0) {
      const double lo = i == 0 ? 0 : static_cast<double>(std::uint64_t{1} << i);
      const double hi = static_cast<double>(std::uint64_t{1} << (i + 1));
      const double within = (target - seen) / static_cast<double>(counts[i]);
      return (lo + within * (hi - lo)) / 1e3;
    }
    seen += static_cast<double>(counts[i]);
  }
  return 0;
}

}  // namespace

LedgerInputs ledger_inputs(std::uint64_t seed) {
  LedgerInputs in;
  const StreamSource hot = hot_point_stream(seed);
  const StreamSource fresh = fresh_point_stream(seed);
  const StreamSource grid = grid_stream(seed);
  const StreamSource sim = simulate_stream(seed);
  std::vector<service::Fingerprint> seen;
  for (std::uint64_t i = 0; in.point_mix.size() < 48 && i < 4096; ++i) {
    Generated g = hot.at(i);
    const service::Fingerprint key = service::fingerprint(g.request);
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    in.point_mix.push_back(std::move(g));
  }
  for (std::uint64_t i = 0; i < 64; ++i) in.fresh_mix.push_back(fresh.at(i));
  bool tiny = false, large_sweep = false, large_curve = false;
  for (std::uint64_t i = 0; i < 48 || !tiny || !large_sweep || !large_curve; ++i) {
    Generated g = grid.at(i);
    tiny = tiny || (g.kind == Kind::Sweep && g.size == Size::Tiny);
    large_sweep = large_sweep || (g.kind == Kind::Sweep && g.size == Size::Large);
    large_curve = large_curve || (g.kind == Kind::Curve && g.size == Size::Large);
    in.grid_mix.push_back(std::move(g));
  }
  for (std::uint64_t i = 0; i < 21; ++i) in.sim_mix.push_back(sim.at(i));
  return in;
}

std::vector<Metric> probe_layers(const LedgerInputs& inputs, SpanLog& spans) {
  Collected out;
  probe_kernels(inputs, spans, out);
  probe_serving(inputs, spans, out);
  return out.metrics;
}

std::vector<Metric> workload_counters(const Deployment& deployment,
                                      std::size_t requests) {
  Collected out;
  const Fleet& fleet = *deployment.fleet;
  const std::vector<service::QueryEngine*> engines = fleet.engines();
  service::CacheStats cache;
  double submitted = 0, batch_requests = 0, batches = 0, shed = 0, degraded = 0;
  for (const service::QueryEngine* engine : engines) {
    cache += engine->cache_stats();
    const service::MetricsRegistry& m = engine->metrics();
    submitted += static_cast<double>(m.submitted.value());
    batch_requests += static_cast<double>(m.batch_sizes.requests());
    batches += static_cast<double>(m.batch_sizes.batches());
    shed += static_cast<double>(m.qos_shed_background.value() +
                                m.qos_shed_batch.value());
    degraded += static_cast<double>(m.qos_degraded_responses.value());
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.put("service.cache_hit_ratio", cache.hit_rate(), "ratio");
  static const std::pair<const char*, service::RequestType> kTypes[] = {
      {"classify", service::RequestType::Classify},
      {"recommend", service::RequestType::Recommend},
      {"cost", service::RequestType::Cost},
      {"simulate", service::RequestType::Simulate},
      {"sweep_chunk", service::RequestType::SweepChunk},
      {"fault_chunk", service::RequestType::FaultChunk},
  };
  for (const auto& [name, type] : kTypes) {
    out.put(std::string("service.engine_p50_us.") + name,
            engine_p50_us(engines, type), "us");
  }
  out.put("service.tasks_per_request", ratio(batch_requests, submitted), "ratio");
  out.put("service.batch_mean", ratio(batch_requests, batches), "count");
  out.put("qos.shed_ratio", ratio(shed, submitted), "ratio");
  out.put("qos.degraded_ratio", ratio(degraded, submitted), "ratio");

  double frames = 0;
  for (const service::MetricsRegistry* m : fleet.registries()) {
    frames += static_cast<double>(m->net_frames_in.value() + m->net_frames_out.value());
  }
  const auto n = static_cast<double>(requests);
  out.put("net.frames_per_request", ratio(frames, n), "count");
  double bytes_out = 0, bytes_in = 0, frames_out = 0, frames_in = 0;
  for (const auto& connection : deployment.connections) {
    bytes_out += static_cast<double>(connection->bytes_out());
    bytes_in += static_cast<double>(connection->bytes_in());
    frames_out += static_cast<double>(connection->frames_out());
    frames_in += static_cast<double>(connection->frames_in());
  }
  out.put("wire.request_bytes", ratio(bytes_out, frames_out), "B");
  out.put("wire.response_bytes", ratio(bytes_in, frames_in), "B");
  double hedges = 0, failovers = 0, proxied = 0;
  if (cluster::CombiningProxy* proxy = fleet.proxy()) {
    const service::MetricsRegistry& m = proxy->metrics();
    hedges = static_cast<double>(m.net_hedges_sent.value());
    failovers = static_cast<double>(m.net_failovers.value());
    proxied = static_cast<double>(m.net_requests_sent.value());
  }
  out.put("cluster.hedges_per_request", ratio(hedges, proxied), "ratio");
  out.put("cluster.failovers", failovers, "count");
  return out.metrics;
}

}  // namespace perfbench
