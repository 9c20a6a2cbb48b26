// Migration planning: the diff between two stage maps, and its modeled cost.
//
// When a layer moves from GPU A to GPU B, its weights, gradients, and
// optimizer state are transferred and its memory is released on A (paper
// §4.1).  The plan groups transfers per (src,dst) pair; distinct pairs move
// concurrently, transfers sharing an endpoint serialize — so the modeled
// migration time is the per-rank bottleneck.
#pragma once

#include <span>
#include <vector>

#include "comm/cost_model.hpp"
#include "pipeline/stage_map.hpp"

namespace dynmo::balance {

struct LayerTransfer {
  std::size_t layer = 0;
  int src_stage = 0;
  int dst_stage = 0;
  double bytes = 0.0;
};

/// Deployment-priced exposed cost of a migration plan: the wall-clock the
/// plan stalls the pipeline for (per-rank serialization bottleneck) plus
/// its wire bytes split by whether each transfer crosses a node boundary.
/// Node membership comes from the cost model, so a Deployment/Topology-
/// backed model classifies by the real cluster graph and the flat model by
/// its `gpus_per_node` rule.
struct MigrationCost {
  double time_s = 0.0;            ///< per-rank serialization bottleneck
  double intra_node_bytes = 0.0;  ///< bytes moved inside nodes
  double inter_node_bytes = 0.0;  ///< bytes moved across the fabric
  double total_bytes() const { return intra_node_bytes + inter_node_bytes; }
};

struct MigrationPlan {
  std::vector<LayerTransfer> transfers;

  bool empty() const { return transfers.empty(); }
  double total_bytes() const;
  /// Wall-clock estimate under per-rank serialization; stage s is rank s.
  double estimated_time_s(const comm::CostModel& net) const;
  /// Same, but stage s lives on rank stage_to_rank[s] (a deployment's
  /// placement); each transfer is priced by the link its endpoints
  /// actually share.
  double estimated_time_s(const comm::CostModel& net,
                          std::span<const int> stage_to_rank) const;
  /// estimated_time_s plus the intra/inter-node byte split — what the
  /// payoff-window acceptance rule weighs against the projected gain.
  /// Empty `stage_to_rank` → stage s is rank s.
  MigrationCost exposed_cost(const comm::CostModel& net,
                             std::span<const int> stage_to_rank = {}) const;
};

/// Diff `before` → `after`; `state_bytes[l]` is what layer l's migration
/// actually moves (params+grads+optimizer; CSR index arrays when pruned).
///
/// Incremental: when both maps have the same stage count, only the layers
/// inside a boundary-difference interval [min(b_s, a_s), max(b_s, a_s))
/// can change stages (an integer argument on the sorted boundary vectors),
/// so only those intervals are scanned — O(moved + changed-boundaries)
/// instead of O(L); maps with different stage counts get the full O(L)
/// diff.  The transfers are bit-identical, in the same ascending-layer
/// order, as the full diff; the differential suite
/// (tests/test_incremental_cost.cpp) holds the two to exact equality.
MigrationPlan plan_migration(const pipeline::StageMap& before,
                             const pipeline::StageMap& after,
                             std::span<const double> state_bytes);

}  // namespace dynmo::balance
