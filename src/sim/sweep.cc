#include "sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <utility>

#include "common/flat_hash.h"
#include "common/parallel.h"

namespace swim::sim {
namespace {

/// One result slot per configuration, padded to a cache line so lanes
/// finishing neighbouring cells never write-share a line. The sentinel
/// is unreachable by construction (every index is visited exactly once
/// below); its message stays inside the small-string buffer so filling
/// 10k slots performs zero heap allocations — unlike the retired
/// per-slot InternalError("sweep cell never ran") pre-fill.
struct alignas(64) SweepSlot {
  StatusOr<ReplayResult> value{InternalError("never ran")};
};

/// Replays one cell inside its lane, preferring the shared template.
StatusOr<ReplayResult> RunCell(const SweepConfig& config,
                               const StatusOr<ReplayTemplate>* shared) {
  if (config.trace == nullptr) {
    return InvalidArgumentError("sweep config has no trace");
  }
  if (shared != nullptr) {
    if (!shared->ok()) return shared->status();
    if (shared->value().Compatible(config.options)) {
      return shared->value().Replay(config.options);
    }
  }
  // Template-relevant options differ from the cell that built the shared
  // template: private build, identical results, no sharing.
  auto own = ReplayTemplate::Build(*config.trace, config.options);
  if (!own.ok()) return std::move(own).status();
  return own->Replay(config.options);
}

}  // namespace

std::vector<StatusOr<ReplayResult>> RunSweep(
    const std::vector<SweepConfig>& configs,
    const SweepOptions& sweep_options) {
  const size_t n = configs.size();
  if (n == 0) return {};

  // Build phase, once per distinct trace: the first cell referencing a
  // trace supplies the template-relevant options. Build errors (empty
  // trace, bad dependencies, ...) are copied into every cell on that
  // trace, matching what per-cell ReplayTrace used to report.
  std::vector<std::unique_ptr<StatusOr<ReplayTemplate>>> templates;
  FlatHashMap<const trace::Trace*, size_t> template_of;
  std::vector<const StatusOr<ReplayTemplate>*> template_for(n, nullptr);
  for (size_t i = 0; i < n; ++i) {
    const SweepConfig& config = configs[i];
    if (config.trace == nullptr) continue;
    auto it = template_of.find(config.trace);
    size_t slot;
    if (it == template_of.end()) {
      slot = templates.size();
      templates.push_back(std::make_unique<StatusOr<ReplayTemplate>>(
          ReplayTemplate::Build(*config.trace, config.options)));
      template_of[config.trace] = slot;
    } else {
      slot = it->second;
    }
    template_for[i] = templates[slot].get();
  }

  // Run phase: shared-nothing lanes. Lane t replays cells t, t+lanes,
  // t+2*lanes, ... (striding mixes the grid's systematically cheap and
  // expensive cells across lanes). Each cell is a pure function of
  // (template, options), so the slot contents are independent of the
  // lane count.
  const int lanes = static_cast<int>(
      std::min<size_t>(ResolveParallelism(sweep_options.max_parallelism), n));
  std::vector<SweepSlot> slots(n);
  std::atomic<size_t> done{0};
  std::vector<std::function<void()>> lane_tasks;
  lane_tasks.reserve(lanes);
  for (int lane = 0; lane < lanes; ++lane) {
    lane_tasks.push_back([&, lane] {
      for (size_t i = static_cast<size_t>(lane); i < n;
           i += static_cast<size_t>(lanes)) {
        slots[i].value = RunCell(configs[i], template_for[i]);
        if (sweep_options.progress) {
          sweep_options.progress(
              done.fetch_add(1, std::memory_order_relaxed) + 1, n);
        }
      }
    });
  }
  RunConcurrently(lane_tasks, lanes);

  std::vector<StatusOr<ReplayResult>> results;
  results.reserve(n);
  for (SweepSlot& slot : slots) results.push_back(std::move(slot.value));
  return results;
}

std::vector<StatusOr<ReplayResult>> RunSweep(
    const std::vector<SweepConfig>& configs, int max_parallelism) {
  SweepOptions sweep_options;
  sweep_options.max_parallelism = max_parallelism;
  return RunSweep(configs, sweep_options);
}

std::vector<SweepConfig> SweepGrid(const trace::Trace& trace,
                                   const ReplayOptions& base,
                                   const std::vector<std::string>& policies,
                                   const std::vector<int>& node_counts,
                                   const std::vector<uint64_t>& seeds) {
  std::vector<SweepConfig> configs;
  configs.reserve(policies.size() * node_counts.size() * seeds.size());
  for (const std::string& policy : policies) {
    for (int nodes : node_counts) {
      for (uint64_t seed : seeds) {
        SweepConfig config;
        config.trace = &trace;
        config.options = base;
        config.options.scheduler = policy;
        config.options.cluster.nodes = nodes;
        config.options.seed = seed;
        config.label = policy + "/n" + std::to_string(nodes) + "/s" +
                       std::to_string(seed);
        configs.push_back(std::move(config));
      }
    }
  }
  return configs;
}

}  // namespace swim::sim
