#include "service/engine.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "arch/adl_parser.hpp"
#include "core/split_range.hpp"
#include "cost/area_model.hpp"
#include "cost/config_bits.hpp"
#include "explore/recommend.hpp"
#include "service/fingerprint.hpp"
#include "trace/trace.hpp"

namespace mpct::service {

/// Per-kind part of a flat-range job: all that a sweep (Table II
/// scoring over an (n, LUT budget, objective) grid) and a fault curve
/// (a (fault rate x trial) Monte-Carlo grid) do differently.  Both
/// evaluate a flat cell range in disjoint slices — concurrently, each
/// into its own part of one pre-sized output — and then reduce it once
/// in index order.  The pool's RangeJob, the inline execute() path and
/// the chunk executors all drive a request through one of these.
class RangeKind {
 public:
  RangeKind(RequestType kind_type, const char* chunk_span_name,
            const char* merge_span_name)
      : type(kind_type),
        chunk_span(chunk_span_name),
        merge_span(merge_span_name) {}
  virtual ~RangeKind() = default;

  const RequestType type;
  /// Static-storage span names (trace span names must outlive the
  /// tracer, so no runtime concatenation).
  const char* const chunk_span;
  const char* const merge_span;

  virtual std::size_t cells() const = 0;
  /// Split granularity: one grid row for a sweep, 1 for a curve.
  virtual std::size_t grain() const = 0;
  /// Size the output for cells [first, last): the whole request, or the
  /// one range a chunk request names.
  virtual void open(std::size_t first, std::size_t last) = 0;
  /// Evaluate cells [begin, end) of the opened range into their slice
  /// of the output; concurrent calls name disjoint ranges.
  virtual void evaluate(std::size_t begin, std::size_t end) = 0;
  /// The whole request's payload, reduced from the output in index
  /// order; the output is moved out or freed, never copied.
  virtual ResponsePayload finish() = 0;
  /// The opened range as a chunk payload; moves the output out.
  virtual ResponsePayload finish_chunk() = 0;
};

namespace {

/// Static-storage span name for the per-type execute span (trace span
/// names must outlive the tracer, so no runtime concatenation).
const char* execute_span_name(RequestType type) {
  switch (type) {
    case RequestType::Classify:   return "execute.classify";
    case RequestType::Recommend:  return "execute.recommend";
    case RequestType::Cost:       return "execute.cost";
    case RequestType::Sweep:      return "execute.sweep";
    case RequestType::FaultSweep: return "execute.fault_sweep";
    case RequestType::SweepChunk: return "execute.sweep_chunk";
    case RequestType::FaultChunk: return "execute.fault_chunk";
    case RequestType::Simulate:   return "execute.simulate";
  }
  return "execute";
}

QueryResponse rejected(Status status) {
  QueryResponse response;
  response.status = std::move(status);
  return response;
}

std::future<QueryResponse> ready_future(QueryResponse response) {
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();
  promise.set_value(std::move(response));
  return future;
}

/// Resolve an immediately-available response on the submitter's thread:
/// through the callback (submit_async, returning an invalid future the
/// caller discards) or as a ready future (submit).
std::future<QueryResponse> resolve_ready(
    const QueryEngine::ResponseCallback& callback, QueryResponse response) {
  if (callback) {
    callback(std::move(response));
    return {};
  }
  return ready_future(std::move(response));
}

QueryResponse execute_classify(const ClassifyRequest& request) {
  QueryResponse response;
  ClassifyResponse payload;
  if (const auto* spec = std::get_if<arch::ArchitectureSpec>(&request.input)) {
    payload.spec = *spec;
  } else {
    const arch::ParseResult parsed =
        arch::parse_single_adl(std::get<std::string>(request.input));
    if (!parsed.ok()) {
      std::string message;
      for (const arch::ParseError& error : parsed.errors) {
        if (!message.empty()) message += "; ";
        message += error.to_string();
      }
      response.status = Status::parse_error(std::move(message));
      return response;
    }
    payload.spec = parsed.specs.front();
  }
  payload.classification = payload.spec.classify();
  payload.flexibility = payload.spec.flexibility();
  response.payload =
      std::make_shared<const ResponsePayload>(std::move(payload));
  return response;
}

QueryResponse execute_recommend(const RecommendRequest& request,
                                const cost::ComponentLibrary& library) {
  QueryResponse response;
  if (request.requirements.n <= 0) {
    response.status = Status::invalid_request(
        "recommend: design-point n must be positive, got " +
        std::to_string(request.requirements.n));
    return response;
  }
  RecommendResponse payload;
  payload.recommendations =
      explore::recommend(request.requirements, library);
  if (request.top_k != 0 &&
      payload.recommendations.size() > request.top_k) {
    payload.recommendations.resize(request.top_k);
  }
  response.payload =
      std::make_shared<const ResponsePayload>(std::move(payload));
  return response;
}

Status validate_sweep(const explore::SweepGrid& grid) {
  const explore::SweepGrid g = grid.normalized();
  for (std::int64_t n : g.n_values) {
    if (n <= 0) {
      return Status::invalid_request(
          "sweep: design-point n must be positive, got " + std::to_string(n));
    }
  }
  for (std::int64_t v : g.lut_budgets) {
    if (v <= 0) {
      return Status::invalid_request(
          "sweep: lut_budget must be positive, got " + std::to_string(v));
    }
  }
  return Status::okay();
}

Status validate_curve(const fault::CurveSpec& spec) {
  for (double rate : spec.fault_rates) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      return Status::invalid_request(
          "fault_sweep: fault rate must be in [0, 1], got " +
          std::to_string(rate));
    }
  }
  if (spec.trials_per_rate <= 0) {
    return Status::invalid_request(
        "fault_sweep: trials_per_rate must be positive, got " +
        std::to_string(spec.trials_per_rate));
  }
  if ((spec.noc_width > 0) != (spec.noc_height > 0)) {
    return Status::invalid_request(
        "fault_sweep: NoC needs both dimensions positive, got " +
        std::to_string(spec.noc_width) + "x" +
        std::to_string(spec.noc_height));
  }
  return Status::okay();
}

Status validate_chunk_range(std::string_view what, std::uint64_t begin,
                            std::uint64_t end, std::uint64_t cells) {
  if (begin >= end || end > cells) {
    return Status::invalid_request(
        std::string(what) + ": chunk range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") invalid for " + std::to_string(cells) +
        " cells");
  }
  return Status::okay();
}

class SweepKind final : public RangeKind {
 public:
  SweepKind(const explore::SweepGrid& grid,
            const cost::ComponentLibrary& library)
      : RangeKind(RequestType::Sweep, "sweep.chunk", "sweep.merge"),
        evaluator_(grid, library) {}

  std::size_t cells() const override { return evaluator_.cell_count(); }
  /// Whole grid rows, so every chunk runs the evaluator's batch kernel
  /// end to end (a split row falls back to the scalar edge path —
  /// correct, just slower).
  std::size_t grain() const override { return evaluator_.row_cells(); }
  void open(std::size_t first, std::size_t last) override {
    first_ = first;
    points_.resize(last - first);
  }
  void evaluate(std::size_t begin, std::size_t end) override {
    evaluator_.evaluate_range(begin, end, points_.data() + (begin - first_));
  }
  /// Moves the points into the payload and computes the Pareto front.
  ResponsePayload finish() override {
    SweepResponse payload;
    payload.result.candidate_classes = evaluator_.candidate_count();
    payload.result.points = std::move(points_);
    payload.result.pareto_front = explore::pareto_front(payload.result.points);
    return payload;
  }
  ResponsePayload finish_chunk() override {
    SweepChunkResponse payload;
    payload.points = std::move(points_);
    payload.candidate_classes = evaluator_.candidate_count();
    return payload;
  }

 private:
  explore::SweepEvaluator evaluator_;
  std::vector<explore::SweepPoint> points_;
  std::size_t first_ = 0;
};

class CurveKind final : public RangeKind {
 public:
  CurveKind(const fault::CurveSpec& spec,
            const cost::ComponentLibrary& library)
      : RangeKind(RequestType::FaultSweep, "fault.chunk", "fault.merge"),
        evaluator_(spec, library) {}

  std::size_t cells() const override { return evaluator_.cell_count(); }
  std::size_t grain() const override { return 1; }
  void open(std::size_t first, std::size_t last) override {
    first_ = first;
    outcomes_.resize(last - first);
  }
  void evaluate(std::size_t begin, std::size_t end) override {
    evaluator_.evaluate_range(begin, end,
                              outcomes_.data() + (begin - first_));
  }
  /// The sequential index-order reduction (CurveEvaluator::finalize),
  /// so the curve is bit-identical however the cells were chunked; the
  /// outcomes are freed on return.
  ResponsePayload finish() override {
    const std::vector<fault::TrialOutcome> outcomes = std::move(outcomes_);
    FaultSweepResponse payload;
    payload.result.spec = evaluator_.spec();
    payload.result.points = evaluator_.finalize(outcomes);
    return payload;
  }
  ResponsePayload finish_chunk() override {
    FaultChunkResponse payload;
    payload.outcomes = std::move(outcomes_);
    return payload;
  }

 private:
  fault::CurveEvaluator evaluator_;
  std::vector<fault::TrialOutcome> outcomes_;
  std::size_t first_ = 0;
};

/// The grid a Sweep or SweepChunk request carries; null otherwise.
const explore::SweepGrid* sweep_grid(const Request& request) {
  if (const auto* whole = std::get_if<SweepRequest>(&request)) {
    return &whole->grid;
  }
  if (const auto* chunk = std::get_if<SweepChunkRequest>(&request)) {
    return &chunk->grid;
  }
  return nullptr;
}

/// The spec a FaultSweep or FaultChunk request carries.
const fault::CurveSpec& curve_spec(const Request& request) {
  if (const auto* chunk = std::get_if<FaultChunkRequest>(&request)) {
    return chunk->spec;
  }
  return std::get<FaultSweepRequest>(request).spec;
}

/// Validation of a range request (a Sweep, FaultSweep or a chunk of
/// either) — the grid's or the spec's, never the cell range's.
Status validate_range(const Request& request) {
  if (const explore::SweepGrid* grid = sweep_grid(request)) {
    return validate_sweep(*grid);
  }
  return validate_curve(curve_spec(request));
}

std::unique_ptr<RangeKind> make_range_kind(
    const Request& request, const cost::ComponentLibrary& library) {
  if (const explore::SweepGrid* grid = sweep_grid(request)) {
    return std::make_unique<SweepKind>(*grid, library);
  }
  return std::make_unique<CurveKind>(curve_spec(request), library);
}

/// A range request evaluated on the calling thread.  A whole Sweep or
/// FaultSweep is the inline (worker_threads == 0) and execute() path;
/// the worker pool chunks it through submit_range() instead.  A
/// SweepChunk or FaultChunk is one disjoint cell range — how the
/// cluster proxy scatters a request across backends.  Unlike a whole
/// request it goes through the normal cached single-task path, so a
/// repeated chunk (same grid, same range) is a cache hit on the server
/// that owns it on the consistent-hash ring.  The chunk carries the
/// full grid or spec because each cell (and each trial's RNG stream)
/// derives from its flat index over the whole request — so outcomes are
/// bit-identical to the same cells of a single-server evaluation.
QueryResponse execute_range(const Request& request,
                            const cost::ComponentLibrary& library) {
  Status valid = validate_range(request);
  if (!valid.ok()) return rejected(std::move(valid));
  const std::unique_ptr<RangeKind> kind = make_range_kind(request, library);
  std::uint64_t begin = 0;
  std::uint64_t end = kind->cells();
  const auto* sweep_chunk = std::get_if<SweepChunkRequest>(&request);
  const auto* fault_chunk = std::get_if<FaultChunkRequest>(&request);
  const bool chunk = sweep_chunk != nullptr || fault_chunk != nullptr;
  if (chunk) {
    begin = sweep_chunk ? sweep_chunk->begin : fault_chunk->begin;
    end = sweep_chunk ? sweep_chunk->end : fault_chunk->end;
    valid = validate_chunk_range(to_string(request_type(request)), begin, end,
                                 kind->cells());
    if (!valid.ok()) return rejected(std::move(valid));
  }
  kind->open(begin, end);
  kind->evaluate(begin, end);
  QueryResponse response;
  response.payload = std::make_shared<const ResponsePayload>(
      chunk ? kind->finish_chunk() : kind->finish());
  return response;
}

/// Lower a workload onto the machine the target names and run it.  The
/// request is wrong (InvalidRequest) whenever the lowering refuses it:
/// bad spec bounds, an unclassifiable target, a class without the
/// switches the kernel needs, or faults that break the fixed mapping.
/// Only a genuine machine trap escapes to the InternalError catch-all.
QueryResponse execute_simulate(const SimulateRequest& request) {
  QueryResponse response;
  const std::string bad_spec = workload::validate(request.workload);
  if (!bad_spec.empty()) {
    response.status = Status::invalid_request("simulate: " + bad_spec);
    return response;
  }
  if (request.options.width < 1 || request.options.width > 64) {
    response.status = Status::invalid_request(
        "simulate: width must be 1..64, got " +
        std::to_string(request.options.width));
    return response;
  }
  if (request.options.max_cycles < 1 ||
      request.options.max_cycles > 100'000'000) {
    response.status = Status::invalid_request(
        "simulate: max_cycles must be 1..100000000, got " +
        std::to_string(request.options.max_cycles));
    return response;
  }
  MachineClass target;
  if (const auto* mc = std::get_if<MachineClass>(&request.target)) {
    target = *mc;
  } else {
    const auto& spec = std::get<arch::ArchitectureSpec>(request.target);
    const Classification classification = spec.classify();
    if (!classification.ok()) {
      response.status = Status::invalid_request(
          "simulate: target spec is not a runnable taxonomy class: " +
          classification.note);
      return response;
    }
    const std::optional<MachineClass> canonical =
        canonical_class(*classification.name);
    if (!canonical) {
      response.status = Status::invalid_request(
          "simulate: " + to_string(*classification.name) +
          " has no canonical machine class");
      return response;
    }
    target = *canonical;
  }
  SimulateResponse payload;
  try {
    payload.result = workload::run_workload(request.workload, target,
                                            request.options, request.faults,
                                            request.seed);
  } catch (const workload::LoweringError& e) {
    response.status =
        Status::invalid_request(std::string("simulate: ") + e.what());
    return response;
  }
  response.payload =
      std::make_shared<const ResponsePayload>(std::move(payload));
  return response;
}

/// Keep every second element, always including the first; an axis of
/// fewer than two entries is left alone.
template <typename T>
void stride_axis(std::vector<T>& axis) {
  if (axis.size() < 2) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < axis.size(); i += 2) {
    axis[kept++] = std::move(axis[i]);
  }
  axis.resize(kept);
}

/// Admission said Degrade: shrink grid work in place so it costs a
/// fraction of the full request — a sweep keeps every second n / LUT
/// value, a fault curve keeps every second rate at half the trials.
/// Returns true when the request actually shrank (the response must
/// then carry QueryResponse::sampled).  The strided grid fingerprints
/// differently from the full one, so degraded and full-precision
/// results never share a cache entry.
bool stride_for_degrade(Request& request) {
  if (auto* sweep = std::get_if<SweepRequest>(&request)) {
    explore::SweepGrid grid = sweep->grid.normalized();
    const std::size_t before = grid.cell_count();
    stride_axis(grid.n_values);
    stride_axis(grid.lut_budgets);
    if (grid.cell_count() == before) return false;
    sweep->grid = std::move(grid);
    return true;
  }
  if (auto* curve = std::get_if<FaultSweepRequest>(&request)) {
    fault::CurveSpec spec = curve->spec.normalized();
    const std::size_t before = spec.cell_count();
    stride_axis(spec.fault_rates);
    if (spec.trials_per_rate > 1) spec.trials_per_rate /= 2;
    if (spec.cell_count() == before) return false;
    curve->spec = std::move(spec);
    return true;
  }
  return false;
}

QueryResponse execute_cost(const CostRequest& request,
                           const cost::ComponentLibrary& library) {
  QueryResponse response;
  std::vector<std::int64_t> sweep = request.n_sweep;
  if (sweep.empty()) sweep.push_back(request.options.n);
  for (std::int64_t n : sweep) {
    if (n <= 0) {
      response.status = Status::invalid_request(
          "cost: sweep value n must be positive, got " + std::to_string(n));
      return response;
    }
  }
  CostResponse payload;
  payload.points.reserve(sweep.size());
  for (std::int64_t n : sweep) {
    cost::EstimateOptions options = request.options;
    options.n = n;
    CostResponse::Point point;
    point.n = n;
    if (const auto* mc = std::get_if<MachineClass>(&request.target)) {
      point.area = cost::estimate_area(*mc, library, options);
      point.config_bits = cost::estimate_config_bits(*mc, library, options);
    } else {
      const auto& spec = std::get<arch::ArchitectureSpec>(request.target);
      point.area = cost::estimate_area(spec, library, options);
      point.config_bits = cost::estimate_config_bits(spec, library, options);
    }
    payload.points.push_back(std::move(point));
  }
  response.payload =
      std::make_shared<const ResponsePayload>(std::move(payload));
  return response;
}

}  // namespace

QueryEngine::QueryEngine(EngineOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_shards, options_.cache_bytes),
      queue_(std::make_unique<qos::WfqQueue<Task>>(
          options_.queue_capacity == 0 ? 1 : options_.queue_capacity,
          options_.wfq_weights)),
      admission_(options_.admission) {
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.start_workers) start();
}

/// With QoS off, every task rides the Interactive subqueue no matter
/// its recorded class — one FIFO, byte-for-byte the pre-QoS dispatch
/// order.  The class is still stamped on the task so callers can
/// observe it.
qos::PriorityClass QueryEngine::enqueue_class(qos::PriorityClass cls) const {
  return options_.enable_qos ? cls : qos::PriorityClass::Interactive;
}

QueryEngine::~QueryEngine() { shutdown(); }

void QueryEngine::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_ || shutdown_ || options_.worker_threads == 0) return;
  started_ = true;
  workers_.reserve(options_.worker_threads);
  for (unsigned i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

std::future<QueryResponse> QueryEngine::submit(Request request,
                                               Deadline deadline) {
  return submit_impl(std::move(request), deadline, nullptr);
}

std::future<QueryResponse> QueryEngine::submit(Request request,
                                               Deadline deadline,
                                               qos::PriorityClass priority) {
  return submit_impl(std::move(request), deadline, nullptr, priority);
}

void QueryEngine::submit_async(Request request, Deadline deadline,
                               ResponseCallback callback) {
  submit_impl(std::move(request), deadline, std::move(callback));
}

void QueryEngine::submit_async(Request request, Deadline deadline,
                               qos::PriorityClass priority,
                               std::uint64_t cancel_owner,
                               std::uint64_t cancel_id,
                               ResponseCallback callback) {
  submit_impl(std::move(request), deadline, std::move(callback), priority,
              cancel_owner, cancel_id);
}

std::future<QueryResponse> QueryEngine::submit_impl(
    Request request, Deadline deadline, ResponseCallback callback,
    std::optional<qos::PriorityClass> priority, std::uint64_t cancel_owner,
    std::uint64_t cancel_id) {
  trace::ScopedSpan span("engine.submit", trace::Category::Engine, "type",
                         static_cast<std::int64_t>(request_type(request)));
  metrics_.submitted.add();

  if (deadline.expired()) {
    metrics_.rejected_deadline.add();
    trace::emit_instant("deadline.expired", trace::Category::Mark);
    return resolve_ready(callback, rejected(Status::deadline_exceeded()));
  }

  const qos::PriorityClass cls =
      priority.value_or(qos::default_priority(request));
  bool degraded = false;
  bool strided = false;
  if (options_.enable_qos) {
    admission_.observe(interactive_buckets(), Clock::now());
    const qos::Admission admission =
        admission_.decide(cls, queue_->max_fill());
    if (admission.action == qos::AdmissionAction::Shed) {
      // Disjoint from the lifecycle rejection counters by design: a
      // shed is a policy refusal, never counted as a deadline / queue /
      // shutdown event (docs/SERVICE.md, "Counting invariants").
      if (cls == qos::PriorityClass::Background) {
        metrics_.qos_shed_background.add();
      } else {
        metrics_.qos_shed_batch.add();
      }
      trace::emit_instant("qos.shed", trace::Category::Qos);
      return resolve_ready(
          callback,
          rejected(Status::overloaded(
              std::string(qos::to_string(cls)) + " load shed: pressure " +
                  std::to_string(admission.pressure),
              admission.retry_after_ms)));
    }
    if (admission.action == qos::AdmissionAction::Degrade) {
      degraded = true;
      strided = stride_for_degrade(request);
      if (strided) trace::emit_instant("qos.degrade", trace::Category::Qos);
    }
  }

  if (options_.worker_threads == 0) {
    // Single-threaded fallback: execute inline, deterministically.
    metrics_.batch_sizes.record(1);
    QueryResponse response =
        run_request(request, deadline, Clock::now(), degraded);
    if (strided) mark_degraded(response);
    return resolve_ready(callback, std::move(response));
  }

  const RequestType type = request_type(request);
  if (type == RequestType::Sweep || type == RequestType::FaultSweep) {
    return submit_range(request, deadline, std::move(callback), cls, degraded,
                        strided, cancel_owner, cancel_id);
  }

  Task task;
  task.request = std::move(request);
  task.deadline = deadline;
  task.enqueued = Clock::now();
  task.trace_id = trace::current_trace_id();
  task.callback = std::move(callback);
  task.priority = cls;
  task.allow_stale = degraded;
  if (cancel_owner != 0 || cancel_id != 0) {
    task.cancel = cancels_.add(cancel_owner, cancel_id);
    task.cancel_owner = cancel_owner;
    task.cancel_id = cancel_id;
  }
  std::future<QueryResponse> future;
  if (!task.callback) future = task.promise.get_future();

  Status rejection = enqueue(std::span<Task>(&task, 1), cls);
  if (!rejection.ok()) {
    if (task.cancel) cancels_.erase(task.cancel_owner, task.cancel_id);
    // Resolved after the lock is released so a callback can never run
    // while the engine's lifecycle mutex is held.
    return resolve_ready(task.callback, rejected(std::move(rejection)));
  }
  return future;
}

std::vector<std::future<QueryResponse>> QueryEngine::submit_batch(
    std::vector<Request> requests, Deadline deadline) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(requests.size());
  for (Request& request : requests) {
    futures.push_back(submit(std::move(request), deadline));
  }
  return futures;
}

QueryResponse QueryEngine::execute(const Request& request, Deadline deadline) {
  metrics_.submitted.add();
  if (deadline.expired()) {
    metrics_.rejected_deadline.add();
    return rejected(Status::deadline_exceeded());
  }
  return run_request(request, deadline, Clock::now());
}

void QueryEngine::worker_loop() {
  std::vector<Task> batch;
  for (;;) {
    batch.clear();
    Task first;
    if (!queue_->pop(first)) return;  // closed and drained
    batch.push_back(std::move(first));
    while (batch.size() < options_.max_batch) {
      std::optional<Task> next = queue_->try_pop();
      if (!next) break;
      batch.push_back(std::move(*next));
    }
    metrics_.batch_sizes.record(batch.size());
    for (Task& task : batch) {
      metrics_.queue_depth.decrement();
      metrics_.in_flight.increment();
      // Restore the submitter's trace context for everything this task
      // records — queue.wait, execute spans, chunk spans, merge spans.
      trace::TraceContextScope context(task.trace_id);
      if (trace::enabled()) [[unlikely]] {
        // The wait is only measurable here: the submitter stamped
        // task.enqueued, this worker knows the dequeue time.
        trace::emit_span("queue.wait", trace::Category::Queue, task.enqueued,
                         Clock::now());
      }
      if (task.job) {
        run_range_chunk(task);
        metrics_.in_flight.decrement();
        continue;
      }
      if (task.cancel && task.cancel->is_cancelled()) {
        // The cancel arrived after this worker popped the task (the
        // queue sweep missed it) — honour it here instead of spending
        // the execution.
        metrics_.qos_cancelled_inflight.add();
        trace::emit_instant("qos.cancelled", trace::Category::Qos);
        metrics_.in_flight.decrement();
        finish_task(task, rejected(Status::cancelled()));
        continue;
      }
      QueryResponse response = run_request(task.request, task.deadline,
                                           task.enqueued, task.allow_stale);
      metrics_.in_flight.decrement();
      finish_task(task, std::move(response));
    }
  }
}

void QueryEngine::finish_task(Task& task, QueryResponse response) {
  if (task.cancel) cancels_.erase(task.cancel_owner, task.cancel_id);
  if (task.job) {
    task.job->resolve(std::move(response));
  } else if (task.callback) {
    task.callback(std::move(response));
  } else {
    task.promise.set_value(std::move(response));
  }
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    --pending_;
  }
  drained_.notify_all();
}

bool QueryEngine::RangeJob::fail(StatusCode code, std::string message) {
  int expected = 0;
  if (fail_code.compare_exchange_strong(expected, static_cast<int>(code),
                                        std::memory_order_acq_rel)) {
    // Only the winning CAS writes the message; complete_range() reads it
    // after the final fetch_sub on `remaining` synchronizes with ours.
    fail_message = std::move(message);
    return true;
  }
  return false;
}

void QueryEngine::RangeJob::resolve(QueryResponse response) {
  if (callback) {
    callback(std::move(response));
  } else {
    promise.set_value(std::move(response));
  }
}

Status QueryEngine::enqueue(std::span<Task> tasks, qos::PriorityClass cls) {
  trace::ScopedSpan span("engine.enqueue", trace::Category::Engine);
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (shutdown_) {
    metrics_.rejected_shutdown.add();
    return Status::shutting_down();
  }
  if (!queue_->try_push(enqueue_class(cls), tasks)) {
    metrics_.rejected_queue_full.add();
    return Status::queue_full();
  }
  ++pending_;
  metrics_.queue_depth.add(static_cast<std::int64_t>(tasks.size()));
  return Status::okay();
}

std::future<QueryResponse> QueryEngine::submit_range(
    const Request& request, Deadline deadline, ResponseCallback callback,
    qos::PriorityClass priority, bool degraded, bool strided,
    std::uint64_t cancel_owner, std::uint64_t cancel_id) {
  const Clock::time_point enqueued = Clock::now();
  const RequestType type = request_type(request);

  Status valid = validate_range(request);
  if (!valid.ok()) {
    metrics_.failed.add();
    return resolve_ready(callback, rejected(std::move(valid)));
  }

  // The key fingerprint(Request) computes, so the inline and
  // chunk-parallel paths share cache entries.  A strided (degraded)
  // request hashes differently, so it can only hit other degraded runs.
  const Fingerprint key = fingerprint(request);
  if (options_.enable_cache) {
    bool served_stale = false;
    std::shared_ptr<const ResponsePayload> hit;
    {
      trace::ScopedSpan probe("cache.probe", trace::Category::Cache);
      hit = probe_cache(key, degraded, served_stale);
      probe.annotate("hit", hit ? 1 : 0);
    }
    if (hit) {
      metrics_.cache_hits.add();
      QueryResponse response;
      response.payload = std::move(hit);
      response.cache_hit = true;
      if (served_stale || strided) mark_degraded(response);
      response.latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - enqueued);
      metrics_.latency(type).record(response.latency);
      metrics_.completed.add();
      return resolve_ready(callback, std::move(response));
    }
    metrics_.cache_misses.add();
  }

  auto job = std::make_shared<RangeJob>();
  job->kind = make_range_kind(request, options_.library);
  job->kind->open(0, job->kind->cells());
  job->key = key;
  job->enqueued = enqueued;
  job->trace_id = trace::current_trace_id();
  job->callback = std::move(callback);
  job->sampled = strided;
  std::future<QueryResponse> future;
  if (!job->callback) future = job->promise.get_future();
  qos::CancelToken cancel;
  if (cancel_owner != 0 || cancel_id != 0) {
    cancel = cancels_.add(cancel_owner, cancel_id);
  }

  // kChunksPerExecutor chunks per worker (load balance without queue
  // churn), but never more chunks than the queue could ever hold.
  const std::vector<IndexRange> ranges = split_range(
      job->kind->cells(),
      std::min(kChunksPerExecutor * options_.worker_threads,
               queue_->capacity()),
      job->kind->grain());
  job->remaining.store(ranges.size(), std::memory_order_relaxed);
  std::vector<Task> chunks(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    Task& task = chunks[i];
    task.deadline = deadline;
    task.enqueued = enqueued;
    task.trace_id = job->trace_id;
    task.job = job;
    task.chunk_begin = ranges[i].begin;
    task.chunk_end = ranges[i].end;
    task.priority = priority;
    task.cancel = cancel;
    task.cancel_owner = cancel_owner;
    task.cancel_id = cancel_id;
  }
  Status rejection = enqueue(chunks, priority);
  if (!rejection.ok()) {
    if (cancel) cancels_.erase(cancel_owner, cancel_id);
    // Resolved after the lock is released so a callback can never run
    // while the engine's lifecycle mutex is held.
    return resolve_ready(job->callback, rejected(std::move(rejection)));
  }
  return future;
}

void QueryEngine::run_range_chunk(Task& task) {
  RangeJob& job = *task.job;
  {
    // Scoped so the merge (complete_range) traces as a sibling span, not
    // a child of whichever chunk happens to finish last.
    trace::ScopedSpan span(
        job.kind->chunk_span, trace::Category::Chunk, "cells",
        static_cast<std::int64_t>(task.chunk_end - task.chunk_begin));
    if (task.cancel && task.cancel->is_cancelled()) {
      // Cooperative cancellation: checked once per chunk, so an
      // in-flight request stops within one chunk's work.
      if (job.fail(StatusCode::Cancelled)) {
        metrics_.qos_cancelled_inflight.add();
        trace::emit_instant("qos.cancelled", trace::Category::Qos);
      }
    } else if (task.deadline.expired()) {
      trace::emit_instant("deadline.expired", trace::Category::Mark);
      job.fail(StatusCode::DeadlineExceeded);
    } else if (job.fail_code.load(std::memory_order_relaxed) == 0) {
      try {
        job.kind->evaluate(task.chunk_begin, task.chunk_end);
      } catch (const std::exception& e) {
        job.fail(StatusCode::InternalError, e.what());
      } catch (...) {
        job.fail(StatusCode::InternalError, "unknown exception");
      }
    }
  }
  finish_chunk(task);
}

void QueryEngine::finish_chunk(Task& task) {
  if (task.job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    complete_range(task);
  }
}

void QueryEngine::complete_range(Task& task) {
  RangeJob& job = *task.job;
  QueryResponse response;
  {
    // Closed before the end-to-end latency is stamped, so queue-wait +
    // chunk + merge spans stay accountable within the recorded latency.
    trace::ScopedSpan span(job.kind->merge_span, trace::Category::Merge);
    const int fail = job.fail_code.load(std::memory_order_acquire);
    if (fail != 0) {
      switch (static_cast<StatusCode>(fail)) {
        case StatusCode::DeadlineExceeded:
          metrics_.rejected_deadline.add();
          metrics_.expired_in_queue.add();
          response = rejected(Status::deadline_exceeded());
          break;
        case StatusCode::ShuttingDown:
          metrics_.rejected_shutdown.add();
          response = rejected(Status::shutting_down());
          break;
        case StatusCode::Cancelled:
          // Already counted (queued or in-flight) by whoever won the
          // fail CAS; the response is just the ack.
          response = rejected(Status::cancelled());
          break;
        default:
          response = rejected(Status::internal_error(job.fail_message));
          trace::emit_instant("request.failed", trace::Category::Mark);
          break;
      }
    } else {
      response.payload =
          std::make_shared<const ResponsePayload>(job.kind->finish());
      if (options_.enable_cache) cache_.put(job.key, response.payload);
      if (job.sampled) mark_degraded(response);
    }
  }
  response.latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - job.enqueued);
  metrics_.latency(job.kind->type).record(response.latency);
  if (response.ok()) {
    metrics_.completed.add();
  } else if (response.status.code != StatusCode::DeadlineExceeded &&
             response.status.code != StatusCode::Cancelled) {
    metrics_.failed.add();
  }
  finish_task(task, std::move(response));
}

QueryResponse QueryEngine::run_request(const Request& request,
                                       Deadline deadline,
                                       Clock::time_point start,
                                       bool allow_stale) {
  QueryResponse response;
  if (deadline.expired()) {
    // The submit-time check already passed, so this request aged out
    // after acceptance — while queued (worker path) or between the
    // check and execution (inline path).
    metrics_.rejected_deadline.add();
    metrics_.expired_in_queue.add();
    trace::emit_instant("deadline.expired", trace::Category::Mark);
    response = rejected(Status::deadline_exceeded());
  } else {
    trace::ScopedSpan span(execute_span_name(request_type(request)),
                           trace::Category::Execute);
    response = execute_cached(request, allow_stale);
    if (const auto* sim = std::get_if<SimulateRequest>(&request)) {
      if (response.ok() && !response.cache_hit) {
        metrics_.sim_runs.add();
        if (!sim->faults.empty()) metrics_.sim_fault_runs.add();
        if (const SimulateResponse* payload = response.simulate()) {
          metrics_.sim_cycles.add(
              static_cast<std::uint64_t>(payload->result.cycles));
        }
      }
    }
  }
  response.latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - start);
  metrics_.latency(request_type(request)).record(response.latency);
  if (response.ok()) {
    metrics_.completed.add();
  } else if (response.status.code != StatusCode::DeadlineExceeded) {
    metrics_.failed.add();
    // Tail-sampling trigger: a failed request force-keeps its trace.
    trace::emit_instant("request.failed", trace::Category::Mark);
  }
  return response;
}

QueryResponse QueryEngine::execute_cached(const Request& request,
                                          bool allow_stale) {
  if (!options_.enable_cache) return execute_uncached(request);

  const Fingerprint key = fingerprint(request);
  bool served_stale = false;
  std::shared_ptr<const ResponsePayload> hit;
  {
    trace::ScopedSpan probe("cache.probe", trace::Category::Cache);
    hit = probe_cache(key, allow_stale, served_stale);
    probe.annotate("hit", hit ? 1 : 0);
  }
  if (hit) {
    metrics_.cache_hits.add();
    QueryResponse response;
    response.payload = std::move(hit);
    response.cache_hit = true;
    if (served_stale) mark_degraded(response);
    return response;
  }
  metrics_.cache_misses.add();
  QueryResponse response = execute_uncached(request);
  if (response.ok()) cache_.put(key, response.payload);
  return response;
}

/// Soft-TTL ladder: with the TTL disabled (the default) this is a plain
/// cache lookup, byte-for-byte the pre-QoS behavior.  With a TTL, a
/// fresh entry is a hit; a stale one is served only under admission
/// Degrade (trading staleness for a worker's time), otherwise treated
/// as a miss so the recompute refreshes it.
std::shared_ptr<const ResponsePayload> QueryEngine::probe_cache(
    Fingerprint key, bool allow_stale, bool& served_stale) {
  served_stale = false;
  if (options_.cache_soft_ttl.count() <= 0) return cache_.get(key);
  std::chrono::steady_clock::duration age{};
  std::shared_ptr<const ResponsePayload> hit = cache_.get(key, &age);
  if (!hit || age <= options_.cache_soft_ttl) return hit;
  if (!allow_stale) return nullptr;  // stale ⇒ miss; the put() refreshes
  served_stale = true;
  return hit;
}

void QueryEngine::mark_degraded(QueryResponse& response) {
  if (!response.ok() || response.sampled) return;
  response.sampled = true;
  metrics_.qos_degraded_responses.add();
}

LatencyHistogram::Buckets QueryEngine::interactive_buckets() const {
  LatencyHistogram::Buckets merged{};
  for (const RequestType type :
       {RequestType::Classify, RequestType::Recommend, RequestType::Cost,
        RequestType::Simulate}) {
    const LatencyHistogram::Buckets b = metrics_.latency(type).buckets();
    for (std::size_t i = 0; i < b.counts.size(); ++i) {
      merged.counts[i] += b.counts[i];
    }
    merged.count += b.count;
    merged.sum_ns += b.sum_ns;
  }
  return merged;
}

bool QueryEngine::cancel(std::uint64_t owner, std::uint64_t id) {
  trace::ScopedSpan span("qos.cancel", trace::Category::Qos);
  qos::CancelToken token = cancels_.cancel(owner, id);
  if (!token) return false;

  // Dequeue-if-queued: the reclaimed-capacity half of cancellation.
  // Anything still waiting is pulled out of its subqueue now; in-flight
  // work sees the token at the next chunk boundary instead.
  std::vector<Task> removed;
  queue_->remove_all_if(
      [owner, id](const Task& task) {
        return task.cancel_owner == owner && task.cancel_id == id &&
               task.cancel != nullptr;
      },
      removed);
  for (Task& task : removed) {
    metrics_.queue_depth.decrement();
    // A range job counts once, however many of its chunks were queued.
    if (!task.job || task.job->fail(StatusCode::Cancelled)) {
      metrics_.qos_cancelled_queued.add();
      trace::emit_instant("qos.cancelled", trace::Category::Qos);
    }
    if (task.job) {
      finish_chunk(task);
    } else {
      finish_task(task, rejected(Status::cancelled()));
    }
  }
  return true;
}

QueryResponse QueryEngine::execute_uncached(const Request& request) const {
  try {
    return std::visit(
        [this, &request](const auto& req) -> QueryResponse {
          using T = std::decay_t<decltype(req)>;
          if constexpr (std::is_same_v<T, ClassifyRequest>) {
            return execute_classify(req);
          } else if constexpr (std::is_same_v<T, RecommendRequest>) {
            return execute_recommend(req, options_.library);
          } else if constexpr (std::is_same_v<T, SweepRequest> ||
                               std::is_same_v<T, FaultSweepRequest> ||
                               std::is_same_v<T, SweepChunkRequest> ||
                               std::is_same_v<T, FaultChunkRequest>) {
            return execute_range(request, options_.library);
          } else if constexpr (std::is_same_v<T, SimulateRequest>) {
            return execute_simulate(req);
          } else {
            static_assert(std::is_same_v<T, CostRequest>);
            return execute_cost(req, options_.library);
          }
        },
        request);
  } catch (const std::exception& e) {
    return rejected(Status::internal_error(e.what()));
  } catch (...) {
    return rejected(Status::internal_error("unknown exception"));
  }
}

void QueryEngine::drain() {
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  drained_.wait(lock, [this] { return pending_ == 0; });
}

void QueryEngine::shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    shutdown_ = true;
    workers.swap(workers_);
  }
  queue_->close();
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  // An engine that was never start()ed can still hold enqueued tasks;
  // every accepted future must become ready, so reject them here.
  while (std::optional<Task> leftover = queue_->try_pop()) {
    metrics_.queue_depth.decrement();
    if (leftover->job) {
      // Range chunks resolve through their shared job; the last chunk
      // drained answers ShuttingDown (and counts it) exactly once.
      leftover->job->fail(StatusCode::ShuttingDown);
      finish_chunk(*leftover);
      continue;
    }
    metrics_.rejected_shutdown.add();
    finish_task(*leftover, rejected(Status::shutting_down()));
  }
}

}  // namespace mpct::service
