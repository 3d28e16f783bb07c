#ifndef SWIM_SIM_SWEEP_H_
#define SWIM_SIM_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "sim/replay.h"
#include "trace/trace.h"

namespace swim::sim {

/// One cell of a replay sweep: a label for reporting plus the full
/// (trace, options) pair ReplayTrace needs. Traces are referenced, not
/// copied — many cells typically share one trace — so the caller keeps
/// them alive across RunSweep.
struct SweepConfig {
  std::string label;
  const trace::Trace* trace = nullptr;
  ReplayOptions options;
};

/// Knobs for RunSweep beyond the config list.
struct SweepOptions {
  /// Worker lanes for this sweep; 0 means DefaultParallelism() (the
  /// SWIM_THREADS environment variable).
  int max_parallelism = 0;
  /// When set, invoked once per completed cell with (cells completed so
  /// far, total cells) — the hook behind `swim_replay --sweep-progress`.
  /// Called concurrently from worker lanes, so it must be thread-safe;
  /// counts can arrive slightly out of order across lanes.
  std::function<void(size_t, size_t)> progress;
};

/// Replays every configuration across the shared thread pool and returns
/// the results in configuration order.
///
/// Scaling design: the per-trace build work is hoisted into one shared
/// ReplayTemplate per distinct trace (skeletons + dependency graph
/// computed once, not once per cell, as ReplayTemplate::BuildCount()
/// shows), lanes share nothing but that read-only template, and result
/// slots are cache-line-aligned with each cell's ReplayResult built
/// lane-locally and move-assigned into its slot — no cross-lane write
/// sharing on the hot path.
///
/// Determinism contract (how evaluation sweeps stay reproducible, per the
/// paper's §7 methodology of comparing schedulers on the same replayed
/// trace): each cell's result is a pure function of its (trace, options)
/// — per-run RNG streams are derived from options.seed alone, the shared
/// template is immutable, and lanes share no mutable state — so the
/// returned vector is byte-identical at any `max_parallelism` /
/// `SWIM_THREADS`, including 1. Tests replay sweeps at 1/4/8 lanes and
/// require bit-identical results.
///
/// A configuration with a null trace (or one ReplayTrace rejects) yields
/// an error StatusOr in its slot — including cells naming an unknown
/// scheduler policy, which fail with MakeScheduler's hard error instead
/// of silently replaying as FIFO; other runs are unaffected. Cells whose
/// options disagree with the shared template's captured fields
/// (max_tasks_per_job, small_job_bytes, dependencies, or the SLA deadline
/// shape — sla.small_multiplier / sla.large_multiplier / sla.tenants —
/// differ from the first cell on that trace) transparently fall back to a
/// private per-cell build — same results, just without the sharing. The
/// remaining SLA knobs (preemption_budget, tenant_max_running) and the
/// scheduler policy are ordinary per-run axes and sweep freely; the
/// determinism contract above covers preemptive and admission-gated
/// cells too.
std::vector<StatusOr<ReplayResult>> RunSweep(
    const std::vector<SweepConfig>& configs,
    const SweepOptions& sweep_options);

/// Back-compat shorthand: RunSweep with only a lane bound.
std::vector<StatusOr<ReplayResult>> RunSweep(
    const std::vector<SweepConfig>& configs, int max_parallelism = 0);

/// Cross-product helper for the common grid shape: policy x node count x
/// failure seed, all against one trace. Cells are emitted in row-major
/// (policy, nodes, seed) order and labelled "<policy>/n<nodes>/s<seed>".
/// Base options supply everything else (straggler knobs, failure model,
/// dependencies, ...); pass {base.seed} for an un-swept seed axis.
std::vector<SweepConfig> SweepGrid(const trace::Trace& trace,
                                   const ReplayOptions& base,
                                   const std::vector<std::string>& policies,
                                   const std::vector<int>& node_counts,
                                   const std::vector<uint64_t>& seeds);

}  // namespace swim::sim

#endif  // SWIM_SIM_SWEEP_H_
