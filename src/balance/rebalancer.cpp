#include "balance/rebalancer.hpp"

#include <chrono>

#include "core/error.hpp"
#include "core/stats.hpp"

namespace dynmo::balance {

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::Partition: return "partition";
    case Algorithm::Diffusion: return "diffusion";
    case Algorithm::HierarchicalDiffusion: return "hier_diffusion";
  }
  return "?";
}

const char* to_string(MapDecision d) {
  switch (d) {
    case MapDecision::Accepted: return "accepted";
    case MapDecision::RejectedBottleneck: return "rejected_bottleneck";
    case MapDecision::RejectedPayoff: return "rejected_payoff";
  }
  return "?";
}

pipeline::StageMap Rebalancer::propose(
    std::span<const double> weights, const LayerProfile& profile,
    const pipeline::StageMap& current,
    std::optional<DiffusionResult>& diffusion) const {
  switch (cfg_.algorithm) {
    case Algorithm::Partition: {
      PartitionRequest req;
      req.weights.assign(weights.begin(), weights.end());
      req.memory_bytes = profile.memory_bytes;
      req.mem_capacity = cfg_.mem_capacity;
      req.num_stages = current.num_stages();
      req.capacities = cfg_.capacities;
      return PartitionBalancer{}.balance(req).map;
    }
    case Algorithm::Diffusion:
    case Algorithm::HierarchicalDiffusion: {
      DiffusionRequest req;
      req.weights.assign(weights.begin(), weights.end());
      req.memory_bytes = profile.memory_bytes;
      req.mem_capacity = cfg_.mem_capacity;
      req.gamma = cfg_.gamma;
      req.capacities = cfg_.capacities;
      if (cfg_.algorithm == Algorithm::HierarchicalDiffusion &&
          cfg_.hierarchical_decider) {
        return cfg_.hierarchical_decider(req, current);
      }
      diffusion = DiffusionBalancer{}.balance(req, current);
      return diffusion->map;
    }
  }
  return current;  // unreachable
}

RebalanceOutcome Rebalancer::rebalance(
    const LayerProfile& profile, const pipeline::StageMap& current) const {
  DYNMO_CHECK(profile.consistent(), "inconsistent profile");
  DYNMO_CHECK(profile.num_layers() == current.num_layers(),
              "profile covers " << profile.num_layers()
                                << " layers, map covers "
                                << current.num_layers());
  const int S = current.num_stages();
  const auto weights = balance_weights(profile, cfg_.by);

  // Absorb the new snapshot: only stages hosting a changed layer are
  // re-summed (a full reset when the map or capacities moved underneath
  // us — re-packs, elastic transitions, straggler capacity refreshes).
  last_touched_ = surface_.sync(current, weights, profile.time_s,
                                profile.memory_bytes, cfg_.capacities);

  RebalanceOutcome out;
  out.imbalance_before = load_imbalance(surface_.stage_loads_w());

  const auto t0 = std::chrono::steady_clock::now();
  out.map = propose(weights, profile, current, out.diffusion);
  const auto t1 = std::chrono::steady_clock::now();

  // Acceptance on the cached surface: the candidate is priced by
  // re-summing only the stages its boundary moves touch, the bottlenecks
  // are O(1) tournament-tree roots, and the migration diff scans only the
  // boundary-difference intervals.  Values are bit-identical to a full
  // rescan (tests/rescan_oracle.hpp).
  SurfaceEval ev = surface_.evaluate(out.map);
  last_touched_ += ev.touched_stages;
  out.candidate_bytes = ev.plan.total_bytes();
  // Step 1 — hysteresis: a new placement must promise a real bottleneck
  // improvement (in the balancing weights' units), or we keep the current
  // one.
  if (!ev.plan.empty() &&
      ev.norm_w_after >
          ev.norm_w_before * (1.0 - cfg_.min_bottleneck_gain)) {
    out.map = current;
    out.decision = MapDecision::RejectedBottleneck;
  }

  // Step 2 — payoff window: the improvement must also amortize the
  // migration's exposed transfer cost within the configured number of
  // iterations.  The gain is measured on the profile's *time* loads
  // (seconds even when balancing by parameters); the cost is the plan's
  // per-rank bottleneck over the actual deployment links, mirrored across
  // DP replicas and discounted by backprop overlap.
  if (out.decision == MapDecision::Accepted && !ev.plan.empty()) {
    out.projected_gain_s = ev.norm_t_before - ev.norm_t_after;
    const MigrationCost priced =
        ev.plan.exposed_cost(net_, cfg_.stage_to_rank);
    out.exposed_cost_s = priced.time_s * cfg_.migration_cost_multiplier *
                         cfg_.migration_exposed_fraction;
    if (cfg_.payoff_window_iters > 0.0 &&
        out.projected_gain_s * cfg_.payoff_window_iters <
            out.exposed_cost_s) {
      out.map = current;
      out.decision = MapDecision::RejectedPayoff;
    }
  }

  out.overhead.decide_s =
      std::chrono::duration<double>(t1 - t0).count();
  out.overhead.profile_s =
      cfg_.profile_cost_per_layer_s *
          static_cast<double>(profile.num_layers()) +
      cfg_.profile_cost_per_worker_s * static_cast<double>(S);

  out.migration =
      out.decision == MapDecision::Accepted ? ev.plan : MigrationPlan{};
  out.overhead.migrate_s =
      cfg_.stage_to_rank.empty()
          ? out.migration.estimated_time_s(net_)
          : out.migration.estimated_time_s(net_, cfg_.stage_to_rank);

  if (out.decision == MapDecision::Accepted) {
    surface_.commit();
  } else {
    surface_.rollback();
  }
  out.imbalance_after = load_imbalance(surface_.stage_loads_w());
  return out;
}

}  // namespace dynmo::balance
