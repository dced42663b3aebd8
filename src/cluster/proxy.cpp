#include "cluster/proxy.hpp"

#include <functional>
#include <string>
#include <utility>
#include <variant>

#include "core/split_range.hpp"
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
        if (!queue_.try_push(qos::PriorityClass::Interactive, task)) {
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

namespace {

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

/// Mirror the engine's sweep finish(): concatenate in index order and
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

/// Mirror the engine's curve finish(): outcomes concatenate in flat cell
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

/// The per-kind half of a scatter: the span a range request traces
/// under, its cell count and split grain, how one chunk request is
/// built, and how the chunk answers merge.
struct RangeScatter {
  const char* span;  ///< static storage
  std::size_t cells;
  std::size_t grain;
  std::function<service::Request(std::size_t, std::size_t)> chunk;
  std::function<service::QueryResponse(std::vector<service::QueryResponse>)>
      merge;
};

/// Chunks carry the *original* grid: backends normalize it identically,
/// and identical outer sweeps then fingerprint to identical chunks —
/// deterministic placement and cache affinity on repeats.  One grid row
/// (all LUT budgets x all objectives at one n) is the backend batch
/// kernel's granularity.
RangeScatter sweep_scatter(const service::SweepRequest& request) {
  const explore::SweepGrid grid = request.grid.normalized();
  return {"proxy.scatter_sweep", grid.cell_count(),
          grid.lut_budgets.size() * grid.objectives.size(),
          [&request](std::size_t begin, std::size_t end) {
            return service::Request(
                service::SweepChunkRequest{request.grid, begin, end});
          },
          merge_sweep};
}

RangeScatter curve_scatter(const service::FaultSweepRequest& request) {
  return {"proxy.scatter_fault", request.spec.cell_count(), 1,
          [&request](std::size_t begin, std::size_t end) {
            return service::Request(
                service::FaultChunkRequest{request.spec, begin, end});
          },
          [&request](std::vector<service::QueryResponse> parts) {
            return merge_fault(std::move(parts), request.spec);
          }};
}

}  // namespace

service::QueryResponse CombiningProxy::handle(ClusterClient& cluster,
                                              const service::Request& request,
                                              service::Deadline deadline,
                                              std::uint64_t trace_id,
                                              qos::PriorityClass priority) {
  const auto* sweep = std::get_if<service::SweepRequest>(&request);
  const auto* curve = std::get_if<service::FaultSweepRequest>(&request);
  if (sweep == nullptr && curve == nullptr) {
    // Point queries pass through: hash-routed, health-checked, hedged.
    return cluster.call(request, deadline, trace_id, priority);
  }
  const RangeScatter scatter =
      sweep ? sweep_scatter(*sweep) : curve_scatter(*curve);
  trace::ScopedSpan span(scatter.span, trace::Category::Cluster);
  const std::vector<IndexRange> ranges =
      split_range(scatter.cells,
                  kChunksPerExecutor * options_.cluster.endpoints.size(),
                  scatter.grain);
  std::vector<service::Request> chunks;
  chunks.reserve(ranges.size());
  for (const IndexRange range : ranges) {
    chunks.push_back(scatter.chunk(range.begin, range.end));
  }
  span.annotate("chunks", static_cast<std::int64_t>(chunks.size()));
  return scatter.merge(
      cluster.call_many(std::move(chunks), deadline, trace_id, priority));
}

}  // namespace mpct::cluster
