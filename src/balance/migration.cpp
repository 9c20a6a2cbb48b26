#include "balance/migration.hpp"

#include <algorithm>
#include <map>

#include "core/error.hpp"

namespace dynmo::balance {

double MigrationPlan::total_bytes() const {
  double acc = 0.0;
  for (const auto& t : transfers) acc += t.bytes;
  return acc;
}

namespace {

/// Serialize per endpoint: a rank's migration time is the sum of the
/// p2p times of every transfer it participates in; the plan completes when
/// the busiest rank does.
double bottleneck_rank_time(const std::vector<LayerTransfer>& transfers,
                            const comm::CostModel& net,
                            auto&& rank_of_stage) {
  std::map<int, double> rank_time;
  for (const auto& t : transfers) {
    const int src = rank_of_stage(t.src_stage);
    const int dst = rank_of_stage(t.dst_stage);
    const double s =
        net.p2p_time(src, dst, static_cast<std::size_t>(t.bytes));
    rank_time[src] += s;
    rank_time[dst] += s;
  }
  double worst = 0.0;
  for (const auto& [rank, s] : rank_time) worst = std::max(worst, s);
  return worst;
}

/// The full O(L) diff: every layer whose stage differs moves.
MigrationPlan plan_every_layer(const pipeline::StageMap& before,
                               const pipeline::StageMap& after,
                               std::span<const double> state_bytes) {
  MigrationPlan plan;
  for (std::size_t l = 0; l < before.num_layers(); ++l) {
    const int src = before.stage_of(l);
    const int dst = after.stage_of(l);
    if (src != dst) {
      plan.transfers.push_back(LayerTransfer{l, src, dst, state_bytes[l]});
    }
  }
  return plan;
}

}  // namespace

double MigrationPlan::estimated_time_s(const comm::CostModel& net) const {
  return bottleneck_rank_time(transfers, net,
                              [](int stage) { return stage; });
}

double MigrationPlan::estimated_time_s(
    const comm::CostModel& net, std::span<const int> stage_to_rank) const {
  return bottleneck_rank_time(transfers, net, [&](int stage) {
    DYNMO_CHECK(stage >= 0 &&
                    static_cast<std::size_t>(stage) < stage_to_rank.size(),
                "transfer touches stage " << stage << " outside the "
                                          << stage_to_rank.size()
                                          << "-stage placement");
    return stage_to_rank[static_cast<std::size_t>(stage)];
  });
}

MigrationCost MigrationPlan::exposed_cost(
    const comm::CostModel& net, std::span<const int> stage_to_rank) const {
  MigrationCost cost;
  cost.time_s = stage_to_rank.empty() ? estimated_time_s(net)
                                      : estimated_time_s(net, stage_to_rank);
  const auto rank_of = [&](int stage) {
    if (stage_to_rank.empty()) return stage;
    return stage_to_rank[static_cast<std::size_t>(stage)];
  };
  for (const auto& t : transfers) {
    if (net.same_node(rank_of(t.src_stage), rank_of(t.dst_stage))) {
      cost.intra_node_bytes += t.bytes;
    } else {
      cost.inter_node_bytes += t.bytes;
    }
  }
  return cost;
}

MigrationPlan plan_migration(const pipeline::StageMap& before,
                             const pipeline::StageMap& after,
                             std::span<const double> state_bytes) {
  DYNMO_CHECK(before.num_layers() == after.num_layers(),
              "stage maps cover different layer counts");
  DYNMO_CHECK(state_bytes.size() == before.num_layers(),
              "state_bytes size mismatch");
  const auto& bb = before.boundaries();
  const auto& ab = after.boundaries();
  if (bb.size() != ab.size()) {
    // Stage counts differ: the interval argument does not apply, so diff
    // every layer (rare — only synthetic callers compare unequal shapes).
    return plan_every_layer(before, after, state_bytes);
  }
  // A layer l outside every boundary-difference interval satisfies
  // b_s <= l ⇔ a_s <= l for all s, hence StageMap::stage_of (a pure
  // function of those comparisons) places it identically in both maps.
  // Interval starts and ends are non-decreasing in s (both boundary
  // vectors are sorted), so one forward pass merges overlapping intervals
  // and scans each merged range in ascending layer order — the exact
  // transfer order of the full sweep.
  MigrationPlan plan;
  bool open = false;
  std::size_t lo = 0;
  std::size_t hi = 0;
  const auto flush = [&]() {
    for (std::size_t l = lo; l < hi; ++l) {
      const int src = before.stage_of(l);
      const int dst = after.stage_of(l);
      if (src != dst) {
        plan.transfers.push_back(LayerTransfer{l, src, dst, state_bytes[l]});
      }
    }
  };
  for (std::size_t s = 1; s + 1 < bb.size(); ++s) {
    if (bb[s] == ab[s]) continue;
    const std::size_t a = std::min(bb[s], ab[s]);
    const std::size_t b = std::max(bb[s], ab[s]);
    if (!open) {
      open = true;
      lo = a;
      hi = b;
    } else if (a <= hi) {
      hi = std::max(hi, b);
    } else {
      flush();
      lo = a;
      hi = b;
    }
  }
  if (open) flush();
  return plan;
}

}  // namespace dynmo::balance
