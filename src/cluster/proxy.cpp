#include "cluster/proxy.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <variant>

#include "explore/sweep.hpp"
#include "fault/degradation_curve.hpp"
#include "trace/trace.hpp"

namespace mpct::cluster {

CombiningProxy::CombiningProxy(ProxyOptions options)
    : options_(std::move(options)),
      tracker_(options_.cluster.endpoints.size(), options_.cluster.health),
      queue_(options_.queue_capacity) {
  if (options_.worker_threads == 0) options_.worker_threads = 1;
}

CombiningProxy::~CombiningProxy() { stop(); }

bool CombiningProxy::start() {
  if (started_) return running();
  started_ = true;

  server_ = std::make_unique<net::Server>(
      [this](service::Request request, service::Deadline deadline,
             const net::Server::RequestContext& context,
             service::QueryEngine::ResponseCallback callback) {
        ProxyTask task{std::move(request), deadline, context.trace_id,
                       context.priority, std::move(callback)};
        if (!queue_.try_push(task)) {
          // try_push leaves the task untouched on failure, so the
          // callback is still ours to answer with.
          service::QueryResponse response;
          response.status = queue_.closed() ? service::Status::shutting_down()
                                            : service::Status::queue_full();
          task.callback(std::move(response));
        }
      },
      metrics_, options_.server);
  if (!server_->start()) {
    error_ = server_->error();
    server_.reset();
    return false;
  }

  if (options_.enable_pinger) {
    pinger_ = std::make_unique<HealthPinger>(options_.cluster.endpoints,
                                             tracker_, options_.cluster.pinger);
    pinger_->start();
  }

  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  running_.store(true, std::memory_order_release);
  return true;
}

void CombiningProxy::stop() {
  running_.store(false, std::memory_order_release);
  if (pinger_) pinger_->stop();
  // Order matters: close the queue and drain the workers *before*
  // stopping the server — handler-mode Server requires every accepted
  // request's callback to have fired before it goes away.  Requests
  // arriving in between get an inline ShuttingDown from the handler.
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (server_) server_->stop();
}

void CombiningProxy::worker_loop() {
  ClusterOptions copts = options_.cluster;
  copts.shared_health = &tracker_;
  copts.enable_pinger = false;  // one proxy, one pinger
  if (copts.metrics == nullptr) copts.metrics = &metrics_;
  ClusterClient cluster(copts);

  ProxyTask task;
  while (queue_.pop(task)) {
    service::QueryResponse response;
    // Restore the originating request's trace context so scatter and
    // cluster spans recorded on this worker join its trace.
    trace::TraceContextScope context(task.trace_id);
    if (task.deadline.expired()) {
      trace::emit_instant("deadline.expired", trace::Category::Mark);
      response.status = service::Status::deadline_exceeded();
    } else {
      response = handle(cluster, task.request, task.deadline, task.trace_id,
                        task.priority);
    }
    task.callback(std::move(response));
    task = ProxyTask{};  // drop the callback before blocking in pop()
  }
}

service::QueryResponse CombiningProxy::handle(ClusterClient& cluster,
                                              const service::Request& request,
                                              service::Deadline deadline,
                                              std::uint64_t trace_id,
                                              qos::PriorityClass priority) {
  switch (service::request_type(request)) {
    case service::RequestType::Sweep:
      return scatter_sweep(cluster, std::get<service::SweepRequest>(request),
                           deadline, trace_id, priority);
    case service::RequestType::FaultSweep:
      return scatter_fault(cluster,
                           std::get<service::FaultSweepRequest>(request),
                           deadline, trace_id, priority);
    default:
      // Point queries pass through: hash-routed, health-checked, hedged.
      return cluster.call(request, deadline, trace_id, priority);
  }
}

namespace {

/// Split [0, cells) into at most @p chunks near-equal disjoint ranges
/// whose boundaries (except the last) land on multiples of
/// @p granularity — sweep chunks align to whole grid rows so every
/// backend runs the evaluator's batch kernel end to end.
template <typename MakeRequest>
std::vector<service::Request> make_chunks(std::uint64_t cells,
                                          std::uint64_t chunks,
                                          std::uint64_t granularity,
                                          MakeRequest make_request) {
  std::vector<service::Request> requests;
  requests.reserve(static_cast<std::size_t>(chunks));
  const std::uint64_t grain = std::max<std::uint64_t>(1, granularity);
  std::uint64_t begin = 0;
  for (std::uint64_t k = 0; k < chunks; ++k) {
    std::uint64_t end = cells * (k + 1) / chunks;
    end = std::min(cells, (end + grain - 1) / grain * grain);
    if (k + 1 == chunks) end = cells;
    if (begin >= end) continue;
    requests.push_back(make_request(begin, end));
    begin = end;
  }
  return requests;
}

/// Ok when every chunk answer is Ok and carries a @p Chunk payload;
/// otherwise the status the merged answer must report instead.
template <typename Chunk>
service::Status check_chunks(const std::vector<service::QueryResponse>& parts,
                             const char* what) {
  for (const service::QueryResponse& part : parts) {
    if (!part.ok()) return part.status;
    if (part.payload == nullptr ||
        !std::holds_alternative<Chunk>(*part.payload)) {
      return service::Status::internal_error(
          std::string("backend answered a ") + what +
          " chunk with the wrong payload type");
    }
  }
  return service::Status::okay();
}

/// Concatenate every chunk's @p field in index order into one vector,
/// releasing each chunk as soon as it has been appended: at its peak the
/// merge holds the result plus the chunks not yet reached, never all
/// chunks beside a finished copy.
template <typename Chunk, typename Field>
auto concat_releasing(std::vector<service::QueryResponse>& parts,
                      Field Chunk::*field) {
  std::size_t total = 0;
  for (const service::QueryResponse& part : parts) {
    total += (std::get<Chunk>(*part.payload).*field).size();
  }
  Field merged;
  merged.reserve(total);
  for (service::QueryResponse& part : parts) {
    const Field& items = std::get<Chunk>(*part.payload).*field;
    merged.insert(merged.end(), items.begin(), items.end());
    part.payload.reset();
  }
  return merged;
}

service::QueryResponse ok_response(service::ResponsePayload payload) {
  service::QueryResponse response;
  response.status = service::Status::okay();
  response.payload =
      std::make_shared<const service::ResponsePayload>(std::move(payload));
  return response;
}

/// Mirror engine.cpp complete_sweep(): concatenate in index order and
/// recompute the Pareto front over the full point set.
service::QueryResponse merge_sweep(std::vector<service::QueryResponse> parts) {
  service::QueryResponse failed;
  failed.status = check_chunks<service::SweepChunkResponse>(parts, "sweep");
  if (!failed.ok()) return failed;
  service::SweepResponse payload;
  payload.result.candidate_classes = static_cast<std::size_t>(
      parts.front().sweep_chunk()->candidate_classes);
  payload.result.points =
      concat_releasing(parts, &service::SweepChunkResponse::points);
  payload.result.pareto_front = explore::pareto_front(payload.result.points);
  return ok_response(std::move(payload));
}

/// Mirror engine.cpp complete_curve(): outcomes concatenate in flat cell
/// order, then one finalize() reduces them per rate.  finalize is a pure
/// aggregation of the outcomes, so the proxy-side evaluator (default
/// component library) matches any backend's.
service::QueryResponse merge_fault(std::vector<service::QueryResponse> parts,
                                   const fault::CurveSpec& spec) {
  service::QueryResponse failed;
  failed.status = check_chunks<service::FaultChunkResponse>(parts, "fault");
  if (!failed.ok()) return failed;
  const std::vector<fault::TrialOutcome> outcomes =
      concat_releasing(parts, &service::FaultChunkResponse::outcomes);
  const fault::CurveEvaluator evaluator(spec);
  service::FaultSweepResponse payload;
  payload.result.spec = evaluator.spec();
  payload.result.points = evaluator.finalize(outcomes);
  return ok_response(std::move(payload));
}

}  // namespace

service::QueryResponse CombiningProxy::scatter_sweep(
    ClusterClient& cluster, const service::SweepRequest& request,
    service::Deadline deadline, std::uint64_t trace_id,
    qos::PriorityClass priority) {
  trace::ScopedSpan span("proxy.scatter_sweep", trace::Category::Cluster);
  const std::uint64_t cells = request.grid.cell_count();
  if (cells == 0) {
    // An empty grid has nothing to scatter; one backend answers
    // canonically (empty points, the filter's candidate count).
    return cluster.call(service::Request(request), deadline, trace_id,
                        priority);
  }
  const std::uint64_t want = std::max<std::uint64_t>(
      1, options_.cluster.endpoints.size() * options_.chunks_per_endpoint);
  const std::uint64_t chunks = std::min(want, cells);
  span.annotate("chunks", static_cast<std::int64_t>(chunks));

  // Chunks carry the *original* grid: backends normalize it identically,
  // and identical outer sweeps then fingerprint to identical chunks —
  // deterministic placement and cache affinity on repeats.
  // One grid row (all LUT budgets x all objectives at one n) is the
  // backend batch kernel's granularity.
  const explore::SweepGrid normalized = request.grid.normalized();
  const std::uint64_t row_cells =
      static_cast<std::uint64_t>(normalized.lut_budgets.size()) *
      normalized.objectives.size();
  return merge_sweep(cluster.call_many(
      make_chunks(cells, chunks, row_cells,
                  [&](std::uint64_t begin, std::uint64_t end) {
                    return service::Request(
                        service::SweepChunkRequest{request.grid, begin, end});
                  }),
      deadline, trace_id, priority));
}

service::QueryResponse CombiningProxy::scatter_fault(
    ClusterClient& cluster, const service::FaultSweepRequest& request,
    service::Deadline deadline, std::uint64_t trace_id,
    qos::PriorityClass priority) {
  trace::ScopedSpan span("proxy.scatter_fault", trace::Category::Cluster);
  const std::uint64_t cells = request.spec.cell_count();
  if (cells == 0) {
    return cluster.call(service::Request(request), deadline, trace_id,
                        priority);
  }
  const std::uint64_t want = std::max<std::uint64_t>(
      1, options_.cluster.endpoints.size() * options_.chunks_per_endpoint);
  const std::uint64_t chunks = std::min(want, cells);
  span.annotate("chunks", static_cast<std::int64_t>(chunks));

  return merge_fault(
      cluster.call_many(
          make_chunks(cells, chunks, /*granularity=*/1,
                      [&](std::uint64_t begin, std::uint64_t end) {
                        return service::Request(service::FaultChunkRequest{
                            request.spec, begin, end});
                      }),
          deadline, trace_id, priority),
      request.spec);
}

}  // namespace mpct::cluster
