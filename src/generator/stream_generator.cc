#include "generator/stream_generator.h"

#include <charconv>
#include <exception>
#include <optional>
#include <thread>

#include "replayer/event_batch.h"

namespace graphtides {

namespace {

/// \brief The engine thread's sink in GenerateTo: packs events into the
/// hand-off's batches; fails once the caller has stopped.
class HandoffConsumer final : public EventConsumer {
 public:
  explicit HandoffConsumer(BatchHandoff* handoff) : handoff_(handoff) {}

  Status Consume(Event&& event) override {
    if (handoff_->Add(event.type, event.vertex, event.edge, event.payload,
                      event.rate_factor, event.pause)) {
      return Status::OK();
    }
    return Status::Cancelled("stream consumer stopped");
  }

 private:
  BatchHandoff* handoff_;
};

}  // namespace

bool StreamGenerator::BuildEvent(EventType type, GeneratorContext& ctx,
                                 TopologyIndex& topology, Event* out,
                                 Status* error) {
  // Candidate misses (no selection, vetoes, duplicates) are the expected
  // retry path of every round, so they return false without constructing a
  // Status message — only genuine engine errors pay for one.
  switch (type) {
    case EventType::kAddVertex: {
      const auto id = model_->SelectVertex(type, ctx);
      if (!id.has_value() || topology.HasVertex(*id)) return false;
      *out = Event::AddVertex(*id, model_->InsertVertexState(*id, ctx));
      return true;
    }
    case EventType::kRemoveVertex: {
      const auto id = model_->SelectVertex(type, ctx);
      if (!id.has_value() || !topology.HasVertex(*id)) return false;
      if (!model_->AllowRemoveVertex(*id, ctx)) return false;
      *out = Event::RemoveVertex(*id);
      return true;
    }
    case EventType::kUpdateVertex: {
      const auto id = model_->SelectVertex(type, ctx);
      if (!id.has_value() || !topology.HasVertex(*id)) return false;
      *out = Event::UpdateVertex(*id, model_->UpdateVertexState(*id, ctx));
      return true;
    }
    case EventType::kAddEdge: {
      const auto edge = model_->SelectEdge(type, ctx);
      if (!edge.has_value() || edge->src == edge->dst ||
          !topology.HasVertex(edge->src) || !topology.HasVertex(edge->dst) ||
          topology.HasEdge(edge->src, edge->dst)) {
        return false;
      }
      *out = Event::AddEdge(edge->src, edge->dst,
                            model_->InsertEdgeState(*edge, ctx));
      return true;
    }
    case EventType::kRemoveEdge: {
      const auto edge = model_->SelectEdge(type, ctx);
      if (!edge.has_value() || !topology.HasEdge(edge->src, edge->dst)) {
        return false;
      }
      if (!model_->AllowRemoveEdge(*edge, ctx)) return false;
      *out = Event::RemoveEdge(edge->src, edge->dst);
      return true;
    }
    case EventType::kUpdateEdge: {
      const auto edge = model_->SelectEdge(type, ctx);
      if (!edge.has_value() || !topology.HasEdge(edge->src, edge->dst)) {
        return false;
      }
      *out = Event::UpdateEdge(edge->src, edge->dst,
                               model_->UpdateEdgeState(*edge, ctx));
      return true;
    }
    case EventType::kMarker:
    case EventType::kSetRate:
    case EventType::kPause:
      *error = Status::InvalidArgument(
          "models must produce graph-changing event types");
      return false;
  }
  *error = Status::Internal("unhandled event type");
  return false;
}

Result<GenerateSummary> StreamGenerator::GenerateTo(EventConsumer& consumer) {
  BatchHandoff handoff;
  Result<GenerateSummary> engine_result = Status::Internal("engine not run");
  std::exception_ptr engine_exception;
  std::thread engine([&] {
    try {
      HandoffConsumer sink(&handoff);
      engine_result = RunEngine(sink);
    } catch (...) {
      engine_exception = std::current_exception();
    }
    // Events emitted before an engine error or exception are still
    // delivered.
    handoff.Close();
  });
  // Stops and joins the engine on every way out, a throwing consumer
  // included.
  struct JoinEngine {
    BatchHandoff& handoff;
    std::thread& engine;
    ~JoinEngine() {
      handoff.Stop();
      engine.join();
    }
  };
  Status consumed;
  {
    JoinEngine join{handoff, engine};
    Event event;
    while (consumed.ok()) {
      std::optional<EventBatch> batch = handoff.Next();
      if (!batch.has_value()) break;
      for (const EventRecord& r : batch->records) {
        event.type = r.type;
        event.vertex = r.vertex;
        event.edge = r.edge;
        event.payload.assign(batch->PayloadOf(r));
        event.rate_factor = r.rate_factor;
        event.pause = r.pause;
        consumed = consumer.Consume(std::move(event));
        if (!consumed.ok()) break;
      }
      handoff.Recycle(std::move(*batch));
    }
  }
  if (engine_exception) std::rethrow_exception(engine_exception);
  GT_RETURN_NOT_OK(consumed);
  GT_RETURN_NOT_OK(engine_result.status());
  GT_RETURN_NOT_OK(consumer.Finish());
  return engine_result;
}

Result<GenerateSummary> StreamGenerator::RunEngine(EventConsumer& sink) {
  GenerateSummary summary;
  TopologyIndex topology;
  Rng rng(options_.seed);
  GeneratorContext ctx(&topology, &rng);

  // Phase (i): bootstrap.
  GraphBuilder builder(&topology, &ctx, &sink);
  GT_RETURN_NOT_OK(model_->BootstrapGraph(builder, ctx));
  summary.bootstrap_events = builder.events_emitted();
  summary.total_events = summary.bootstrap_events;
  if (options_.emit_phase_markers) {
    GT_RETURN_NOT_OK(sink.Consume(Event::Marker("BOOTSTRAP_DONE")));
    ++summary.total_events;
  }
  if (options_.bootstrap_pause > Duration::Zero()) {
    GT_RETURN_NOT_OK(sink.Consume(Event::Pause(options_.bootstrap_pause)));
    ++summary.total_events;
  }

  // Phase (ii): evolution rounds.
  size_t consecutive_skips = 0;
  size_t marker_counter = 0;
  // Reused marker label: "MARK_" + counter rendered in place.
  char marker_label[32] = "MARK_";
  constexpr size_t kMarkPrefixLen = 5;
  for (size_t round = 1; round <= options_.rounds; ++round) {
    ctx.set_round(round);
    bool emitted = false;
    for (size_t attempt = 0; attempt < options_.max_retries_per_round;
         ++attempt) {
      const EventType type = model_->NextEventType(ctx);
      if (!IsGraphOp(type)) {
        return Status::InvalidArgument(
            "model " + model_->Name() +
            " returned a non-graph event type from NextEventType");
      }
      Event event;
      Status error;
      if (!BuildEvent(type, ctx, topology, &event, &error)) {
        if (error.ok()) continue;  // no candidate this attempt — retry
        return error;
      }
      if (!model_->Constraint(event, ctx)) continue;

      // Mirror into the topology shadow; selection already guaranteed
      // validity, so a failure here is an engine bug.
      Status applied;
      switch (event.type) {
        case EventType::kAddVertex:
          applied = topology.AddVertex(event.vertex);
          ctx.BumpNextVertexId(event.vertex);
          break;
        case EventType::kRemoveVertex:
          applied = topology.RemoveVertex(event.vertex);
          break;
        case EventType::kAddEdge:
          applied = topology.AddEdge(event.edge.src, event.edge.dst);
          break;
        case EventType::kRemoveEdge:
          applied = topology.RemoveEdge(event.edge.src, event.edge.dst);
          break;
        default:
          break;  // state updates do not alter topology
      }
      if (!applied.ok()) {
        return applied.WithContext("generator engine inconsistency at round " +
                                   std::to_string(round));
      }
      GT_RETURN_NOT_OK(sink.Consume(std::move(event)));
      ++summary.evolution_events;
      ++summary.total_events;
      emitted = true;
      break;
    }
    if (!emitted) {
      ++summary.skipped_rounds;
      if (++consecutive_skips > options_.max_consecutive_skips) {
        return Status::Internal(
            "model " + model_->Name() + " produced no applicable event for " +
            std::to_string(consecutive_skips) + " consecutive rounds");
      }
      continue;
    }
    consecutive_skips = 0;
    if (options_.marker_interval != 0 &&
        summary.evolution_events % options_.marker_interval == 0) {
      auto [end, ec] =
          std::to_chars(marker_label + kMarkPrefixLen,
                        marker_label + sizeof(marker_label), ++marker_counter);
      (void)ec;
      GT_RETURN_NOT_OK(sink.Consume(Event::Marker(
          std::string(marker_label, static_cast<size_t>(end - marker_label)))));
      ++summary.total_events;
    }
  }
  if (options_.emit_phase_markers) {
    GT_RETURN_NOT_OK(sink.Consume(Event::Marker("STREAM_END")));
    ++summary.total_events;
  }
  summary.final_vertices = topology.num_vertices();
  summary.final_edges = topology.num_edges();
  return summary;
}

Result<GeneratedStream> StreamGenerator::Generate() {
  GeneratedStream result;
  CollectingConsumer consumer(&result.events);
  GT_ASSIGN_OR_RETURN(GenerateSummary summary, RunEngine(consumer));
  result.bootstrap_events = summary.bootstrap_events;
  result.evolution_events = summary.evolution_events;
  result.skipped_rounds = summary.skipped_rounds;
  result.final_vertices = summary.final_vertices;
  result.final_edges = summary.final_edges;
  return result;
}

std::vector<Event> ApplyControlSchedule(std::vector<Event> events,
                                        std::vector<ScheduleEntry> schedule) {
  std::vector<Event> out;
  out.reserve(events.size() + schedule.size());
  size_t graph_events = 0;
  size_t next = 0;
  auto drain_due = [&]() {
    while (next < schedule.size() &&
           schedule[next].after_graph_events <= graph_events) {
      out.push_back(schedule[next].event);
      ++next;
    }
  };
  drain_due();
  for (Event& e : events) {
    const bool is_graph = IsGraphOp(e.type);
    out.push_back(std::move(e));
    if (is_graph) {
      ++graph_events;
      drain_due();
    }
  }
  // Entries past the end of the stream are appended.
  while (next < schedule.size()) {
    out.push_back(schedule[next].event);
    ++next;
  }
  return out;
}

}  // namespace graphtides
