#include "spans.hpp"

#include <ostream>

namespace netconst::e2e {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Step:
      return "replica.step";
    case Layer::Cloud:
      return "cloud";
    case Layer::Ingest:
      return "online.ingest";
    case Layer::Refresh:
      return "online.refresh";
    case Layer::Detect:
      return "detect";
    case Layer::Publish:
      return "serving.publish";
    case Layer::PlanHit:
      return "serving.plan.hit";
    case Layer::PlanMiss:
      return "serving.plan.miss";
  }
  return "unknown";
}

Tracer::Tracer(Clock::time_point epoch, std::uint32_t thread_id,
               std::size_t record_cap)
    : epoch_(epoch), thread_id_(thread_id), record_cap_(record_cap) {
  stack_.reserve(8);
}

Tracer::Scope::Scope(Tracer& tracer, Layer layer)
    : tracer_(tracer.enabled_ ? &tracer : nullptr) {
  if (tracer_ != nullptr) tracer_->open(layer);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close();
}

void Tracer::open(Layer layer) {
  stack_.push_back({next_id_++, layer, Clock::now(), 0});
}

void Tracer::close() {
  const Clock::time_point end = Clock::now();
  const Open span = stack_.back();
  stack_.pop_back();
  const std::int64_t duration_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - span.start)
          .count();
  const double self_seconds =
      static_cast<double>(duration_ns - span.child_ns) * 1e-9;

  LayerStats& stats = stats_[static_cast<std::size_t>(span.layer)];
  ++stats.count;
  stats.self_seconds += self_seconds;
  stats.self_us.push_back(self_seconds * 1e6);

  std::uint32_t parent = 0;
  if (stack_.empty()) {
    root_seconds_ += static_cast<double>(duration_ns) * 1e-9;
  } else {
    stack_.back().child_ns += duration_ns;
    parent = stack_.back().id;
  }
  if (records_.size() < record_cap_) {
    const auto since_epoch = [&](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
          .count();
    };
    records_.push_back({span.id, parent, span.layer, tenant_, trace_,
                        since_epoch(span.start), since_epoch(end)});
  }
}

void write_trace_json(std::ostream& out,
                      const std::vector<const Tracer*>& tracers) {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Tracer* tracer : tracers) {
    for (const SpanRecord& r : tracer->records()) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"name\":\"" << layer_name(r.layer)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tracer->thread_id()
          << ",\"ts\":" << static_cast<double>(r.start_ns) * 1e-3
          << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) * 1e-3
          << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
          << ",\"tenant\":" << r.tenant << ",\"trace\":" << r.trace << "}}";
    }
  }
  out << "]}\n";
}

}  // namespace netconst::e2e
