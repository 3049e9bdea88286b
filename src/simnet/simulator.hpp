// Flow-level discrete-event network simulator (the ns-2 substitute).
//
// Transfers are fluid flows routed over the topology; concurrently active
// flows share each directed link by max-min fairness (progressive
// filling), recomputed at every arrival/completion event. A flow's
// lifetime is: injection -> path propagation latency -> fluid transfer at
// the time-varying fair rate -> completion. This reproduces the quantity
// the paper's ns-2 experiments extract — per-transfer elapsed time under
// background contention — without per-packet machinery (see DESIGN.md,
// substitutions).
//
// Background traffic follows the paper's setup: for each chosen
// (src, dst) pair, messages of a fixed size are sent with random waiting
// time between sends, exponentially distributed with mean lambda (the
// natural Poisson-process reading of "waiting time satisfies poisson
// distribution with expected value lambda").
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "simnet/topology.hpp"
#include "support/rng.hpp"

namespace netconst::simnet {

using FlowId = std::uint64_t;

/// Completed-flow bookkeeping.
struct FlowRecord {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t bytes = 0;
  double injected_at = 0.0;
  double completed_at = -1.0;  // < 0 while in flight
  bool tracked = true;         // false for background flows

  bool finished() const { return completed_at >= 0.0; }
  double elapsed() const { return completed_at - injected_at; }
};

/// Open-loop background source: sends `bytes` from src to dst, waits an
/// Exp(mean_wait) interval, repeats.
struct BackgroundSource {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t bytes = 0;
  double mean_wait = 1.0;  // seconds between completions of send calls
};

class FlowSimulator {
 public:
  /// `rng` seeds the background arrival processes.
  explicit FlowSimulator(Topology topology, Rng rng = Rng(42));

  double now() const { return now_; }
  const Topology& topology() const { return topology_; }

  /// Inject a flow at the current time. Returns its id.
  FlowId inject(NodeId src, NodeId dst, std::uint64_t bytes,
                bool tracked = true);

  /// Register a background source; its first send happens after one
  /// waiting interval from the current time.
  void add_background_source(const BackgroundSource& source);

  /// Advance the simulation until `id` completes; returns its elapsed
  /// time (completion - injection). The flow must exist and be unfinished
  /// or already finished (then returns immediately).
  double run_until_complete(FlowId id);

  /// Advance until no tracked flows remain in flight.
  void run_until_idle();

  /// Advance the clock to `t`, processing all events up to it.
  void advance_to(double t);

  /// Convenience: inject + run_until_complete.
  double measure_transfer(NodeId src, NodeId dst, std::uint64_t bytes);

  /// Inject all pairs at once, run until all complete, return elapsed
  /// times in order. This is how concurrent calibration steps and tree
  /// rounds are timed under mutual interference.
  std::vector<double> measure_concurrent(
      const std::vector<std::pair<NodeId, NodeId>>& pairs,
      std::uint64_t bytes);

  /// Callback invoked when a *tracked* flow completes; may inject new
  /// flows (used by the collective executor to chain tree rounds).
  void set_completion_callback(std::function<void(FlowId, double)> cb) {
    completion_callback_ = std::move(cb);
  }

  const FlowRecord& record(FlowId id) const;
  std::size_t tracked_in_flight() const { return tracked_in_flight_; }

  /// Hypothetical max-min rate (bytes/s) a new src->dst flow would get
  /// against the currently transferring flows — an analytic probe that
  /// does not perturb the simulation. Used as the "oracle" instantaneous
  /// bandwidth for trace generation.
  double probe_rate(NodeId src, NodeId dst) const;

 private:
  struct ActiveFlow {
    FlowId id = 0;
    double remaining = 0.0;    // bytes left once transferring
    double rate = 0.0;         // bytes/s from the last rate computation
    double activate_at = 0.0;  // injection + path latency
    bool transferring = false;
    std::vector<std::size_t> directed_links;  // link*2 + direction
  };

  struct PendingArrival {
    double time = 0.0;
    std::size_t source_index = 0;  // background source
    bool operator>(const PendingArrival& other) const {
      return time > other.time;
    }
  };

  void recompute_rates();
  /// Earliest upcoming event time (activation, completion, background
  /// arrival); infinity if none.
  double next_event_time() const;
  /// Process everything scheduled at exactly the next event time and
  /// advance the clock there. Returns false if there was no event.
  bool step();
  void transfer_elapsed(double dt);
  void schedule_next_arrival(std::size_t source_index);

  Topology topology_;
  Rng rng_;
  double now_ = 0.0;
  std::vector<FlowRecord> records_;
  std::vector<ActiveFlow> active_;
  std::size_t tracked_in_flight_ = 0;
  bool rates_dirty_ = true;

  std::vector<BackgroundSource> sources_;
  std::priority_queue<PendingArrival, std::vector<PendingArrival>,
                      std::greater<PendingArrival>>
      arrivals_;

  std::function<void(FlowId, double)> completion_callback_;
};

}  // namespace netconst::simnet
