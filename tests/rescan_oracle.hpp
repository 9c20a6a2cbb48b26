// Full-rescan reference oracles for the decision path, kept only for tests.
//
// Production answers every decision-point query from caches
// (balance::CostSurface, balance::MaxTree, the interval-scan migration
// diff, StageMap's binary-search stage_of, CostBuilder's per-layer memo).
// The functions below are the naive computations those caches replace,
// built on public API only: every stage re-summed, every maximum found by
// std::max_element, every layer diffed and re-priced.  The equivalence
// contract (docs/COST_MODEL.md "Incremental recomputation") is exact
// equality with these, bit for bit; tests/test_incremental_cost.cpp and
// bench/bench_scale.cpp hold production to it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "balance/diffusion.hpp"
#include "balance/incremental.hpp"
#include "balance/migration.hpp"
#include "balance/partition.hpp"
#include "balance/profile.hpp"
#include "balance/rebalancer.hpp"
#include "comm/cost_model.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"
#include "model/layer.hpp"
#include "model/layer_cost.hpp"
#include "pipeline/cost_builder.hpp"
#include "pipeline/stage_map.hpp"

namespace dynmo::testing {

/// StageMap::stage_of as an O(S) linear scan over the stages.
inline int stage_of_rescan(const pipeline::StageMap& map, std::size_t layer) {
  DYNMO_CHECK(layer < map.num_layers(), "layer " << layer << " out of range");
  for (int s = 0; s < map.num_stages(); ++s) {
    if (layer >= map.stage_begin(s) && layer < map.stage_end(s)) return s;
  }
  return map.num_stages() - 1;  // unreachable for valid maps
}

/// Capacity-normalized bottleneck: max over stages of the stage's sum of
/// `per_layer` divided by its capacity (empty `caps` → uniform).
inline double normalized_bottleneck(const pipeline::StageMap& map,
                                    std::span<const double> per_layer,
                                    std::span<const double> caps) {
  auto loads = map.stage_loads(per_layer);
  if (!caps.empty()) {
    DYNMO_CHECK(caps.size() == loads.size(),
                "capacity vector covers " << caps.size()
                                          << " stages, map has "
                                          << loads.size());
    for (std::size_t s = 0; s < loads.size(); ++s) {
      loads[s] /= std::max(1e-12, caps[s]);
    }
  }
  return *std::max_element(loads.begin(), loads.end());
}

/// Stage of every layer, assigned stage by stage over its boundary range
/// (the same owner stage_of_rescan finds, in O(L + S)).
inline std::vector<int> stage_per_layer(const pipeline::StageMap& map) {
  std::vector<int> owner(map.num_layers());
  for (int s = 0; s < map.num_stages(); ++s) {
    for (std::size_t l = map.stage_begin(s); l < map.stage_end(s); ++l) {
      owner[l] = s;
    }
  }
  return owner;
}

/// balance::plan_migration as the O(L) diff over every layer.
inline balance::MigrationPlan plan_migration_rescan(
    const pipeline::StageMap& before, const pipeline::StageMap& after,
    std::span<const double> state_bytes) {
  DYNMO_CHECK(before.num_layers() == after.num_layers(),
              "stage maps cover different layer counts");
  DYNMO_CHECK(state_bytes.size() == before.num_layers(),
              "state_bytes size mismatch");
  const auto src = stage_per_layer(before);
  const auto dst = stage_per_layer(after);
  balance::MigrationPlan plan;
  for (std::size_t l = 0; l < src.size(); ++l) {
    if (src[l] != dst[l]) {
      plan.transfers.push_back(
          balance::LayerTransfer{l, src[l], dst[l], state_bytes[l]});
    }
  }
  return plan;
}

/// CostSurface::evaluate over shadow inputs: the surface's current `map`,
/// its per-layer weights / time / memory and its capacities.
inline balance::SurfaceEval evaluate_rescan(
    const pipeline::StageMap& map, const pipeline::StageMap& candidate,
    std::span<const double> w, std::span<const double> t,
    std::span<const double> m, std::span<const double> caps) {
  balance::SurfaceEval ev;
  ev.norm_w_before = normalized_bottleneck(map, w, caps);
  ev.norm_t_before = normalized_bottleneck(map, t, caps);
  ev.norm_w_after = normalized_bottleneck(candidate, w, caps);
  ev.norm_t_after = normalized_bottleneck(candidate, t, caps);
  ev.plan = plan_migration_rescan(map, candidate, m);
  ev.touched_stages = static_cast<std::size_t>(map.num_stages());
  return ev;
}

/// CostBuilder::layer_times re-evaluated through the builder's reference
/// LayerCostModel for every layer (no memo).
inline std::vector<model::LayerTimes> layer_times_rescan(
    const pipeline::CostBuilder& builder, const model::ModelDesc& model,
    std::span<const model::LayerState> states) {
  std::vector<model::LayerTimes> times;
  times.reserve(states.size());
  for (std::size_t l = 0; l < states.size(); ++l) {
    times.push_back(builder.layer_cost_model().layer_times(
        model.layers[l], states[l], builder.config().micro_batch));
  }
  return times;
}

/// CostBuilder::layer_memory_bytes re-evaluated for every layer (no memo):
/// 1F1B keeps up to (S − stage) microbatches of activations resident.
inline std::vector<double> layer_memory_bytes_rescan(
    const pipeline::CostBuilder& builder, const model::ModelDesc& model,
    std::span<const model::LayerState> states, const pipeline::StageMap& map) {
  const auto& cfg = builder.config();
  const auto owner = stage_per_layer(map);
  std::vector<double> mem;
  mem.reserve(states.size());
  for (std::size_t l = 0; l < states.size(); ++l) {
    const int resident =
        std::min(cfg.num_microbatches, map.num_stages() - owner[l]);
    mem.push_back(builder.layer_cost_model().layer_memory_bytes(
        model.layers[l], states[l], cfg.micro_batch,
        static_cast<std::size_t>(std::max(1, resident))));
  }
  return mem;
}

/// The candidate the Rebalancer's configured algorithm proposes.
inline pipeline::StageMap propose_rescan(
    const balance::RebalanceConfig& cfg, std::span<const double> weights,
    const balance::LayerProfile& profile, const pipeline::StageMap& current,
    std::optional<balance::DiffusionResult>& diffusion) {
  if (cfg.algorithm == balance::Algorithm::Partition) {
    balance::PartitionRequest req;
    req.weights.assign(weights.begin(), weights.end());
    req.memory_bytes = profile.memory_bytes;
    req.mem_capacity = cfg.mem_capacity;
    req.num_stages = current.num_stages();
    req.capacities = cfg.capacities;
    return balance::PartitionBalancer{}.balance(req).map;
  }
  balance::DiffusionRequest req;
  req.weights.assign(weights.begin(), weights.end());
  req.memory_bytes = profile.memory_bytes;
  req.mem_capacity = cfg.mem_capacity;
  req.gamma = cfg.gamma;
  req.capacities = cfg.capacities;
  if (cfg.algorithm == balance::Algorithm::HierarchicalDiffusion &&
      cfg.hierarchical_decider) {
    return cfg.hierarchical_decider(req, current);
  }
  diffusion = balance::DiffusionBalancer{}.balance(req, current);
  return diffusion->map;
}

/// Rebalancer::rebalance re-pricing the whole grid per decision: full
/// stage_loads, std::max_element bottlenecks and the O(L) migration diff.
/// Stateless, so it needs no cache to carry between calls.
inline balance::RebalanceOutcome rebalance_rescan(
    const balance::RebalanceConfig& cfg, const comm::CostModel& net,
    const balance::LayerProfile& profile, const pipeline::StageMap& current) {
  using balance::MapDecision;
  DYNMO_CHECK(profile.consistent(), "inconsistent profile");
  DYNMO_CHECK(profile.num_layers() == current.num_layers(),
              "profile covers " << profile.num_layers()
                                << " layers, map covers "
                                << current.num_layers());
  const auto weights = balance::balance_weights(profile, cfg.by);
  const std::span<const double> caps(cfg.capacities);

  balance::RebalanceOutcome out;
  out.imbalance_before = load_imbalance(current.stage_loads(weights));

  const auto t0 = std::chrono::steady_clock::now();
  out.map = propose_rescan(cfg, weights, profile, current, out.diffusion);
  const auto t1 = std::chrono::steady_clock::now();

  // Hysteresis on the balancing weights.
  const balance::MigrationPlan candidate =
      plan_migration_rescan(current, out.map, profile.memory_bytes);
  out.candidate_bytes = candidate.total_bytes();
  if (!candidate.empty() &&
      normalized_bottleneck(out.map, weights, caps) >
          normalized_bottleneck(current, weights, caps) *
              (1.0 - cfg.min_bottleneck_gain)) {
    out.map = current;
    out.decision = MapDecision::RejectedBottleneck;
  }

  // Payoff window on the time loads.
  if (out.decision == MapDecision::Accepted && !candidate.empty()) {
    out.projected_gain_s =
        normalized_bottleneck(current, profile.time_s, caps) -
        normalized_bottleneck(out.map, profile.time_s, caps);
    const balance::MigrationCost priced =
        candidate.exposed_cost(net, cfg.stage_to_rank);
    out.exposed_cost_s = priced.time_s * cfg.migration_cost_multiplier *
                         cfg.migration_exposed_fraction;
    if (cfg.payoff_window_iters > 0.0 &&
        out.projected_gain_s * cfg.payoff_window_iters < out.exposed_cost_s) {
      out.map = current;
      out.decision = MapDecision::RejectedPayoff;
    }
  }

  out.overhead.decide_s = std::chrono::duration<double>(t1 - t0).count();
  out.overhead.profile_s =
      cfg.profile_cost_per_layer_s *
          static_cast<double>(profile.num_layers()) +
      cfg.profile_cost_per_worker_s *
          static_cast<double>(current.num_stages());
  out.migration =
      out.decision == MapDecision::Accepted ? candidate
                                            : balance::MigrationPlan{};
  out.overhead.migrate_s =
      cfg.stage_to_rank.empty()
          ? out.migration.estimated_time_s(net)
          : out.migration.estimated_time_s(net, cfg.stage_to_rank);
  out.imbalance_after = load_imbalance(out.map.stage_loads(weights));
  return out;
}

}  // namespace dynmo::testing
