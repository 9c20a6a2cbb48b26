// Differential suite for the incremental decision path (docs/COST_MODEL.md
// "Incremental recomputation").
//
// Production serves every decision-point query from caches; the naive
// rescans they replace live in tests/rescan_oracle.hpp.  The contract is
// *exact* equality — EXPECT_EQ on doubles, not EXPECT_NEAR: the cached
// path must produce the very bits the rescan produces, so no decision,
// bottleneck, priced cost, or telemetry byte can drift.  The suite drives
// thousands of randomized perturbations through both in lockstep
// (tests/diff_check.hpp) at every level of the stack:
//
//   MaxTree          vs std::max_element over a shadow vector
//   stage_of         vs the linear boundary scan
//   plan_migration   vs the full O(L) diff
//   CostSurface      vs naive stage_loads + max per perturbation
//   Rebalancer       one long-lived instance vs the stateless rescan, on
//                    every outcome field but the measured decide_s:
//                    Partition, Diffusion and HierarchicalDiffusion
//                    streams with stage-count and capacity changes, and
//                    the recorded load histories of the session and
//                    large_grid goldens
//   CostBuilder      memoized layer pricing vs full re-evaluation
//   Deployment       warmed link/group/capacity lookups vs the cache-miss
//                    lookups of a fresh deployment, plus the resolver-call
//                    regression counter
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "balance/incremental.hpp"
#include "balance/migration.hpp"
#include "balance/rebalancer.hpp"
#include "cluster/deployment.hpp"
#include "cluster/hier_balancer.hpp"
#include "cluster/topology.hpp"
#include "core/rng.hpp"
#include "diff_check.hpp"
#include "dynmo/dynmo.hpp"
#include "pipeline/cost_builder.hpp"
#include "pipeline/stage_map.hpp"
#include "rescan_oracle.hpp"
#include "telemetry/trace_reader.hpp"

namespace dynmo {
namespace {

using balance::CostSurface;
using balance::MaxTree;
using pipeline::StageMap;

// ---------------------------------------------------------------------------
// MaxTree: randomized stress against the std::max_element oracle.

TEST(MaxTree, EmptyAndSingle) {
  MaxTree t;
  EXPECT_TRUE(t.empty());
  t.reset(std::vector<double>{7.5});
  EXPECT_EQ(t.max_value(), 7.5);
  EXPECT_EQ(t.argmax(), 0u);
  t.set(0, -3.0);
  EXPECT_EQ(t.max_value(), -3.0);
}

TEST(MaxTree, TiesResolveToLowestIndexLikeMaxElement) {
  const std::vector<double> v = {1.0, 5.0, 5.0, 2.0, 5.0};
  MaxTree t;
  t.reset(v);
  EXPECT_EQ(t.argmax(),
            static_cast<std::size_t>(
                std::max_element(v.begin(), v.end()) - v.begin()));
  EXPECT_EQ(t.argmax(), 1u);
}

TEST(MaxTree, RandomizedStressVsMaxElementOracle) {
  // 10k ops per seed, several seeds: point updates (with a small discrete
  // value pool so exact ties are frequent), removals modeled as -inf, and
  // occasional full rebuilds at a new size.  After every op the tree's O(1)
  // root must equal std::max_element over a shadow vector.
  for (const std::uint64_t seed : {0x11u, 0x22u, 0x33u, 0x44u, 0x55u}) {
    std::mt19937_64 rng(seed);
    std::vector<double> shadow(1 + rng() % 257);
    for (auto& v : shadow) v = static_cast<double>(rng() % 97) * 0.125;
    MaxTree tree;
    tree.reset(shadow);
    for (int op = 0; op < 10'000; ++op) {
      const int kind = static_cast<int>(rng() % 10);
      if (kind < 8) {  // point update, ties likely
        const std::size_t i = rng() % shadow.size();
        const double v = static_cast<double>(rng() % 97) * 0.125;
        shadow[i] = v;
        tree.set(i, v);
      } else if (kind == 8) {  // remove: the stage drops out of the max
        const std::size_t i = rng() % shadow.size();
        shadow[i] = -std::numeric_limits<double>::infinity();
        tree.set(i, shadow[i]);
      } else {  // rebuild at a new size (insert/remove structure)
        shadow.assign(1 + rng() % 257, 0.0);
        for (auto& v : shadow) v = static_cast<double>(rng() % 97) * 0.125;
        tree.reset(shadow);
      }
      const auto oracle = std::max_element(shadow.begin(), shadow.end());
      ASSERT_EQ(tree.max_value(), *oracle) << "seed " << seed << " op " << op;
      ASSERT_EQ(tree.argmax(),
                static_cast<std::size_t>(oracle - shadow.begin()))
          << "seed " << seed << " op " << op;
      const std::size_t probe = rng() % shadow.size();
      ASSERT_EQ(tree.get(probe), shadow[probe]);
    }
  }
}

// ---------------------------------------------------------------------------
// StageMap::stage_of: binary search vs the linear scan, including
// duplicate boundaries (empty stages).

StageMap random_map(std::mt19937_64& rng, std::size_t layers, int stages) {
  std::vector<std::size_t> b;
  b.push_back(0);
  for (int s = 1; s < stages; ++s) b.push_back(rng() % (layers + 1));
  b.push_back(layers);
  std::sort(b.begin(), b.end());
  return StageMap::from_boundaries(std::move(b));
}

TEST(StageOf, BinarySearchMatchesLinearScan) {
  std::mt19937_64 rng(0xabcd);
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t layers = 1 + rng() % 64;
    const int stages = 1 + static_cast<int>(rng() % 12);
    const StageMap map = random_map(rng, layers, stages);
    for (std::size_t l = 0; l < layers; ++l) {
      ASSERT_EQ(map.stage_of(l), testing::stage_of_rescan(map, l))
          << map.to_string() << " layer " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// plan_migration: boundary-difference intervals vs the full O(L) diff.

TEST(PlanMigration, IntervalScanMatchesFullDiff) {
  std::mt19937_64 rng(0x5eed);
  for (int iter = 0; iter < 2'000; ++iter) {
    const std::size_t layers = 1 + rng() % 96;
    const int stages = 1 + static_cast<int>(rng() % 16);
    const StageMap before = random_map(rng, layers, stages);
    // Same stage count usually (the incremental interval path), a
    // different count sometimes (the explicit fallback).
    const int after_stages =
        (rng() % 8 == 0) ? 1 + static_cast<int>(rng() % 16) : stages;
    const StageMap after = random_map(rng, layers, after_stages);
    std::vector<double> bytes(layers);
    for (auto& x : bytes) x = static_cast<double>(rng() % 1000) * 1e6;
    const auto inc = balance::plan_migration(before, after, bytes);
    const auto ref = testing::plan_migration_rescan(before, after, bytes);
    ASSERT_EQ(inc.transfers.size(), ref.transfers.size())
        << before.to_string() << " -> " << after.to_string();
    for (std::size_t i = 0; i < ref.transfers.size(); ++i) {
      ASSERT_EQ(inc.transfers[i].layer, ref.transfers[i].layer);
      ASSERT_EQ(inc.transfers[i].src_stage, ref.transfers[i].src_stage);
      ASSERT_EQ(inc.transfers[i].dst_stage, ref.transfers[i].dst_stage);
      ASSERT_EQ(inc.transfers[i].bytes, ref.transfers[i].bytes);
    }
  }
}

// ---------------------------------------------------------------------------
// CostSurface: lockstep perturbation stream via the diff_check harness.

std::string dump_surface(const CostSurface& s) {
  std::ostringstream os;
  os << "  map: " << s.map().to_string() << "\n  sum_w:";
  for (double v : s.stage_loads_w()) os << " " << v;
  os << "\n  sum_t:";
  for (double v : s.stage_loads_t()) os << " " << v;
  os << "\n";
  return os.str();
}

// Jiggle a few internal boundaries of `map` within their legal range.
StageMap jiggle(std::mt19937_64& rng, const StageMap& map) {
  std::vector<std::size_t> b = map.boundaries();
  const int moves = 1 + static_cast<int>(rng() % 3);
  for (int m = 0; m < moves; ++m) {
    if (b.size() <= 2) break;
    const std::size_t i = 1 + rng() % (b.size() - 2);
    const std::size_t lo = b[i - 1];
    const std::size_t hi = b[i + 1];
    b[i] = lo + rng() % (hi - lo + 1);
  }
  return StageMap::from_boundaries(std::move(b));
}

TEST(CostSurface, LockstepDifferentialUnderRandomPerturbations) {
  // Thousands of randomized perturbations per seed: profile mutations
  // (sync), capacity changes (full reset), stage-count changes ("topology"
  // reshapes), and candidate evaluations with random commit/rollback.
  // After every step the cached bottlenecks must equal the oracle's
  // normalized bottlenecks bit-for-bit, and evaluate() must agree with
  // testing::evaluate_rescan() on every field.
  for (const std::uint64_t seed : {0xa1u, 0xb2u, 0xc3u}) {
    const std::size_t layers = 48;
    std::vector<double> w(layers), t(layers), m(layers);
    std::mt19937_64 init(seed ^ 0xfeed);
    for (std::size_t l = 0; l < layers; ++l) {
      w[l] = 0.1 + static_cast<double>(init() % 100) * 0.01;
      t[l] = w[l];
      m[l] = static_cast<double>(init() % 64) * 1e6;
    }
    std::vector<double> caps;  // start uniform
    StageMap cur = StageMap::uniform(layers, 8);
    CostSurface surf;
    surf.reset(cur, w, t, m, caps);
    std::string last_eval_diff;  // set by perturb, read by compare

    const auto perturb = [&](std::mt19937_64& rng, int) {
      last_eval_diff.clear();
      switch (rng() % 5) {
        case 0: {  // mutate a handful of layers, re-sync
          const int n = 1 + static_cast<int>(rng() % 4);
          for (int i = 0; i < n; ++i) {
            const std::size_t l = rng() % layers;
            w[l] = 0.1 + static_cast<double>(rng() % 100) * 0.01;
            t[l] = w[l] * (0.5 + static_cast<double>(rng() % 10) * 0.1);
          }
          surf.sync(cur, w, t, m, caps);
          break;
        }
        case 1: {  // capacity perturbation (forces the full-reset arm)
          if (rng() % 2 == 0) {
            caps.assign(static_cast<std::size_t>(cur.num_stages()), 1.0);
            for (auto& c : caps)
              c = 0.25 + static_cast<double>(rng() % 8) * 0.25;
          } else {
            caps.clear();
          }
          surf.sync(cur, w, t, m, caps);
          break;
        }
        case 2: {  // topology reshape: new stage count over the same layers
          const int stages = 2 + static_cast<int>(rng() % 14);
          cur = StageMap::uniform(layers, stages);
          if (!caps.empty()) {
            caps.assign(static_cast<std::size_t>(stages), 1.0);
          }
          surf.sync(cur, w, t, m, caps);
          break;
        }
        default: {  // candidate evaluation + random commit/rollback
          const StageMap cand = jiggle(rng, cur);
          const bool adopt = rng() % 2 == 0;
          balance::SurfaceEval inc = surf.evaluate(cand);
          const balance::SurfaceEval ref =
              testing::evaluate_rescan(cur, cand, w, t, m, caps);
          std::ostringstream os;
          if (inc.norm_w_before != ref.norm_w_before)
            os << "norm_w_before " << inc.norm_w_before << " vs "
               << ref.norm_w_before << "; ";
          if (inc.norm_w_after != ref.norm_w_after)
            os << "norm_w_after " << inc.norm_w_after << " vs "
               << ref.norm_w_after << "; ";
          if (inc.norm_t_before != ref.norm_t_before)
            os << "norm_t_before " << inc.norm_t_before << " vs "
               << ref.norm_t_before << "; ";
          if (inc.norm_t_after != ref.norm_t_after)
            os << "norm_t_after " << inc.norm_t_after << " vs "
               << ref.norm_t_after << "; ";
          if (inc.plan.transfers.size() != ref.plan.transfers.size()) {
            os << "plan size " << inc.plan.transfers.size() << " vs "
               << ref.plan.transfers.size() << "; ";
          } else {
            for (std::size_t i = 0; i < ref.plan.transfers.size(); ++i) {
              const auto& a = inc.plan.transfers[i];
              const auto& b = ref.plan.transfers[i];
              if (a.layer != b.layer || a.src_stage != b.src_stage ||
                  a.dst_stage != b.dst_stage || a.bytes != b.bytes) {
                os << "plan[" << i << "] differs; ";
                break;
              }
            }
          }
          last_eval_diff = os.str();
          if (adopt) {
            surf.commit();
            cur = cand;
          } else {
            surf.rollback();
          }
          break;
        }
      }
    };
    const auto compare = [&](int) -> std::optional<std::string> {
      if (!last_eval_diff.empty()) return "evaluate(): " + last_eval_diff;
      const double ref_bw = testing::normalized_bottleneck(cur, w, caps);
      if (surf.bottleneck_w() != ref_bw) {
        std::ostringstream os;
        os << "bottleneck_w " << surf.bottleneck_w() << " != rescan "
           << ref_bw;
        return os.str();
      }
      const double ref_bt = testing::normalized_bottleneck(cur, t, caps);
      if (surf.bottleneck_t() != ref_bt) {
        std::ostringstream os;
        os << "bottleneck_t " << surf.bottleneck_t() << " != rescan "
           << ref_bt;
        return os.str();
      }
      // The cached per-stage sums must be the exact stage_loads values.
      const auto ref_w = cur.stage_loads(w);
      const auto got_w = surf.stage_loads_w();
      for (std::size_t s = 0; s < ref_w.size(); ++s) {
        if (got_w[s] != ref_w[s]) {
          std::ostringstream os;
          os << "sum_w[" << s << "] " << got_w[s] << " != " << ref_w[s];
          return os.str();
        }
      }
      return std::nullopt;
    };
    const auto r = testing::diff_check(seed, 1'000, perturb, compare,
                                       [&] { return dump_surface(surf); });
    EXPECT_TRUE(r.ok) << r.report;
  }
}

// ---------------------------------------------------------------------------
// Rebalancer: one long-lived production instance (its CostSurface carried
// across decisions) vs the stateless full-rescan oracle on the same profile
// stream — every outcome field except the measured decide_s.

std::optional<std::string> outcome_diff(const balance::RebalanceOutcome& a,
                                        const balance::RebalanceOutcome& b) {
  std::ostringstream os;
  const auto field = [&](const char* name, auto x, auto y) {
    if (!(x == y)) os << name << " " << x << " vs " << y << "; ";
  };
  if (!(a.map == b.map)) {
    os << "map " << a.map.to_string() << " vs " << b.map.to_string() << "; ";
  }
  field("decision", balance::to_string(a.decision),
        balance::to_string(b.decision));
  field("imbalance_before", a.imbalance_before, b.imbalance_before);
  field("imbalance_after", a.imbalance_after, b.imbalance_after);
  field("projected_gain_s", a.projected_gain_s, b.projected_gain_s);
  field("exposed_cost_s", a.exposed_cost_s, b.exposed_cost_s);
  field("candidate_bytes", a.candidate_bytes, b.candidate_bytes);
  field("profile_s", a.overhead.profile_s, b.overhead.profile_s);
  field("migrate_s", a.overhead.migrate_s, b.overhead.migrate_s);
  // decide_s is measured wall clock — the one field that may differ.
  const auto& ta = a.migration.transfers;
  const auto& tb = b.migration.transfers;
  if (ta.size() != tb.size()) {
    os << "migration size " << ta.size() << " vs " << tb.size() << "; ";
  } else {
    for (std::size_t i = 0; i < ta.size(); ++i) {
      if (ta[i].layer != tb[i].layer || ta[i].src_stage != tb[i].src_stage ||
          ta[i].dst_stage != tb[i].dst_stage || ta[i].bytes != tb[i].bytes) {
        os << "migration[" << i << "] differs; ";
        break;
      }
    }
  }
  if (a.diffusion.has_value() != b.diffusion.has_value()) {
    os << "diffusion set on one side only; ";
  } else if (a.diffusion) {
    const auto& da = *a.diffusion;
    const auto& db = *b.diffusion;
    if (!(da.map == db.map) || da.rounds != db.rounds ||
        da.layer_moves != db.layer_moves || da.converged != db.converged ||
        da.phi_history != db.phi_history) {
      os << "diffusion result differs; ";
    }
  }
  if (os.str().empty()) return std::nullopt;
  return os.str();
}

struct DecisionCounts {
  int decisions = 0;
  int accepted_moves = 0;  ///< Accepted with a non-empty migration
  int rejected_bottleneck = 0;
  int rejected_payoff = 0;
  int full_resets = 0;  ///< stage-count changes absorbed by one instance

  void add(const balance::RebalanceOutcome& o) {
    ++decisions;
    switch (o.decision) {
      case balance::MapDecision::Accepted:
        if (!o.migration.empty()) ++accepted_moves;
        break;
      case balance::MapDecision::RejectedBottleneck:
        ++rejected_bottleneck;
        break;
      case balance::MapDecision::RejectedPayoff:
        ++rejected_payoff;
        break;
    }
  }
};

// One lockstep stream.  Every decision draws a drift of a few layers'
// time and state bytes (a dynamism engine shifting load), then rebalances
// through the production instance and the oracle from the same current
// map.  `reshape(rng, decision)` may return a new stage map, which the
// stream adopts as current before the decision (a re-pack or elastic
// transition); `recapacitate(rng, decision, cfg)` may change the config's
// capacities, which — like TrainingSession::make_rebalancer — builds a new
// production instance from the updated config.
// Streams start from 8 uniform stages over 32 layers of ~1 ms each and
// run 400 decisions.
constexpr std::size_t kStreamLayers = 32;
constexpr int kStreamDecisions = 400;

struct Stream {
  balance::RebalanceConfig cfg;
  comm::CostModel net;
  std::function<std::optional<StageMap>(std::mt19937_64&, int)> reshape;
  std::function<bool(std::mt19937_64&, int, balance::RebalanceConfig&)>
      recapacitate;
};

DecisionCounts run_stream(const Stream& st, std::uint64_t seed) {
  balance::RebalanceConfig cfg = st.cfg;
  std::optional<balance::Rebalancer> prod;
  prod.emplace(cfg, st.net);
  balance::LayerProfile prof;
  prof.time_s.assign(kStreamLayers, 1e-3);
  prof.memory_bytes.assign(kStreamLayers, 16e6);
  prof.params.assign(kStreamLayers, 100.0);
  StageMap cur = StageMap::uniform(kStreamLayers, 8);
  DecisionCounts counts;
  balance::RebalanceOutcome last_prod, last_ref;

  const auto perturb = [&](std::mt19937_64& rng, int d) {
    const int n = 1 + static_cast<int>(rng() % 5);
    for (int i = 0; i < n; ++i) {
      const std::size_t l = rng() % kStreamLayers;
      prof.time_s[l] = (0.1 + static_cast<double>(rng() % 200) * 0.01) * 1e-3;
      prof.memory_bytes[l] = static_cast<double>(1 + rng() % 64) * 1e6;
    }
    bool reset = false;
    if (st.reshape) {
      if (auto m = st.reshape(rng, d)) {
        reset = m->num_stages() != cur.num_stages();
        cur = *m;
      }
    }
    if (st.recapacitate && st.recapacitate(rng, d, cfg)) {
      prod.emplace(cfg, st.net);
    }
    last_prod = prod->rebalance(prof, cur);
    last_ref = testing::rebalance_rescan(cfg, st.net, prof, cur);
    if (reset) {
      // A stage-count change must take CostSurface::sync's full-reset
      // arm: every stage re-summed, then the candidate's touched stages.
      EXPECT_GE(prod->last_touched_stages(),
                static_cast<std::size_t>(cur.num_stages()))
          << "decision " << d;
      ++counts.full_resets;
    }
    counts.add(last_prod);
    cur = last_prod.map;
  };
  const auto compare = [&](int d) -> std::optional<std::string> {
    if (d < 0) return std::nullopt;
    return outcome_diff(last_prod, last_ref);
  };
  const auto dump = [&] { return "  current map: " + cur.to_string() + "\n"; };
  const auto r =
      testing::diff_check(seed, kStreamDecisions, perturb, compare, dump);
  EXPECT_TRUE(r.ok) << r.report;
  return counts;
}

// Uniform capacities; the stage count cycles every 40 decisions, so one
// production instance absorbs each reshape through its full-reset arm.
Stream reshaping_stream(balance::Algorithm algorithm, double window) {
  Stream st;
  st.cfg.algorithm = algorithm;
  st.cfg.payoff_window_iters = window;
  st.reshape = [](std::mt19937_64&, int d) -> std::optional<StageMap> {
    if (d == 0 || d % 40 != 0) return std::nullopt;
    static constexpr int kStages[] = {8, 5, 12, 3, 8};
    return StageMap::uniform(kStreamLayers, kStages[(d / 40) % 5]);
  };
  return st;
}

// Heterogeneous capacities over a reversed placement, redrawn every 50
// decisions: every change builds a fresh production instance from the new
// config, exactly as the session rebuilds its rebalancer.
Stream recapacitating_stream(balance::Algorithm algorithm, double window) {
  Stream st;
  st.cfg.algorithm = algorithm;
  st.cfg.payoff_window_iters = window;
  st.cfg.capacities.assign(8, 1.0);
  for (std::size_t s = 0; s < 8; s += 2) st.cfg.capacities[s] = 0.5;
  st.cfg.stage_to_rank = {7, 6, 5, 4, 3, 2, 1, 0};
  st.recapacitate = [](std::mt19937_64& rng, int d,
                       balance::RebalanceConfig& cfg) {
    if (d == 0 || d % 50 != 0) return false;
    for (auto& c : cfg.capacities) {
      c = 0.25 + static_cast<double>(rng() % 4) * 0.25;
    }
    return true;
  };
  return st;
}

// HierarchicalDiffusion over a two-node H100 + A100 deployment, with the
// decider, capacities, placement and cost scaling wired the way
// TrainingSession::start() wires them for an every-iteration cadence.
Stream hierarchical_stream(double window) {
  cluster::NodeDesc h100;
  h100.gpus.assign(4, hw::GpuSpec::h100_sxm5());
  cluster::NodeDesc a100;
  a100.gpus.assign(4, hw::GpuSpec::a100_sxm4());
  const auto dep = cluster::Deployment::make_topology_aware(
      cluster::Topology::make_hetero(
          {h100, a100},
          cluster::default_link(cluster::LinkType::InfiniBand)),
      8);
  const double overlap = 0.85;  // SessionConfig::migration_overlap
  Stream st;
  st.net = dep.make_cost_model();
  st.cfg.algorithm = balance::Algorithm::HierarchicalDiffusion;
  st.cfg.payoff_window_iters = window;
  st.cfg.migration_exposed_fraction = 1.0 - overlap;
  st.cfg.stage_to_rank.assign(dep.stage_to_rank().begin(),
                              dep.stage_to_rank().end());
  st.cfg.capacities = dep.stage_capacities();
  cluster::HierConfig hier_cfg;
  hier_cfg.payoff_window_iters = window;
  hier_cfg.migration_cost_multiplier *= 1.0 - overlap;
  st.cfg.hierarchical_decider =
      [dep, hier_cfg](const balance::DiffusionRequest& req,
                      const StageMap& current) {
        const auto ranks = dep.stage_to_rank().first(
            static_cast<std::size_t>(current.num_stages()));
        return cluster::HierarchicalBalancer(dep.topology(), hier_cfg)
            .balance(req, current, ranks)
            .map;
      };
  return st;
}

TEST(RebalancerDifferential, MatchesRescanOracleOverStreams) {
  using balance::Algorithm;
  // Without hysteresis a candidate that leaves the bottleneck stage alone
  // ties it exactly; the tie must be accepted on both sides.
  Stream no_hysteresis = reshaping_stream(Algorithm::Diffusion, 0.0);
  no_hysteresis.cfg.min_bottleneck_gain = 0.0;
  const std::vector<Stream> streams = {
      reshaping_stream(Algorithm::Partition, 0.0),
      reshaping_stream(Algorithm::Diffusion, 2.0),
      recapacitating_stream(Algorithm::Partition, 2.0),
      recapacitating_stream(Algorithm::Diffusion, 0.0),
      hierarchical_stream(0.02),
      no_hysteresis,
  };
  DecisionCounts total;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const DecisionCounts c = run_stream(streams[i], 0xd1f0 + i);
    EXPECT_GT(c.accepted_moves, 0) << "stream " << i;
    total.decisions += c.decisions;
    total.accepted_moves += c.accepted_moves;
    total.rejected_bottleneck += c.rejected_bottleneck;
    total.rejected_payoff += c.rejected_payoff;
    total.full_resets += c.full_resets;
  }
  // The streams must exercise every acceptance arm, or equality proves
  // nothing about it.
  EXPECT_GE(total.decisions, 2000);
  EXPECT_GE(total.accepted_moves, 50);
  EXPECT_GE(total.rejected_bottleneck, 50);
  EXPECT_GE(total.rejected_payoff, 50);
  EXPECT_GE(total.full_resets, 10);
}

// The recorded load histories of the two goldens that carry per-layer
// arrays, replayed through one production instance and the oracle in
// lockstep — the same frames, rebalance cadence and measurement-noise
// stream balance::replay() feeds its rebalancer.
TEST(RebalancerDifferential, GoldenLoadHistoriesMatchRescanOracle) {
  const std::filesystem::path golden =
      std::filesystem::path(__FILE__).parent_path() / "golden";
  for (const auto& [name, frames] :
       {std::pair<const char*, std::size_t>{"session", 40},
        std::pair<const char*, std::size_t>{"large_grid", 20}}) {
    const telemetry::TraceReader reader((golden / name).string());
    const auto loads = reader.replayed_loads();
    const auto cfg = reader.replay_config();
    ASSERT_EQ(loads.frames.size(), frames) << name;
    const comm::CostModel net{};
    const balance::Rebalancer prod(cfg.rebalance, net);
    Rng noise_rng(hash_mix(cfg.seed, 0x7e55));
    StageMap map = StageMap::uniform(loads.num_layers(), loads.num_stages);
    const std::vector<double> params =
        cfg.params.empty() ? std::vector<double>(loads.num_layers(), 0.0)
                           : cfg.params;
    int decisions = 0;
    for (const auto& frame : loads.frames) {
      if (frame.iter % cfg.rebalance_interval != 0) continue;
      balance::LayerProfile prof;
      prof.time_s = frame.layer_time_s;
      prof.memory_bytes = frame.layer_memory_bytes;
      prof.params = params;
      balance::add_measurement_noise(prof, noise_rng);
      const auto a = prod.rebalance(prof, map);
      const auto b = testing::rebalance_rescan(cfg.rebalance, net, prof, map);
      const auto diff = outcome_diff(a, b);
      ASSERT_FALSE(diff.has_value())
          << name << " frame iter " << frame.iter << ": " << *diff;
      map = a.map;
      ++decisions;
    }
    EXPECT_EQ(decisions, static_cast<int>(frames)) << name;
  }
}

// ---------------------------------------------------------------------------
// Deployment: warmed link/group/capacity lookups return the objects a
// cache miss derives, and the resolver-call counter stays flat on repeats.

TEST(DeploymentCache, MemoizedLookupsMatchAndResolverCallsStayFlat) {
  const auto make = [] {
    return cluster::Deployment::make_topology_aware(
        cluster::Topology::make_dgx_a100(2), 8);
  };
  const auto dep = make();
  const auto base = dep.cache_stats();

  // First pass: misses populate the cache.
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) (void)dep.link(a, b);
  }
  (void)dep.stage_capacities();
  (void)dep.group(dep.stage_to_rank());
  const auto after_first = dep.cache_stats();
  EXPECT_GT(after_first.resolver_calls, base.resolver_calls);

  // Second pass over the identical queries: every warmed answer equals the
  // first (cache-miss) answer of a freshly built, identical deployment.
  const auto fresh = make();
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      const auto lp = dep.link(a, b);
      const auto ref = fresh.link(a, b);
      ASSERT_EQ(lp.alpha_s, ref.alpha_s) << a << "," << b;
      ASSERT_EQ(lp.beta_bytes_s, ref.beta_bytes_s) << a << "," << b;
    }
  }
  EXPECT_EQ(dep.stage_capacities(), fresh.stage_capacities());
  const auto grp = dep.group(dep.stage_to_rank());
  const auto grp_ref = fresh.group(fresh.stage_to_rank());
  EXPECT_EQ(fresh.cache_stats().resolver_calls, after_first.resolver_calls)
      << "the fresh deployment's lookups were not all cache misses";
  EXPECT_EQ(grp.node_sizes, grp_ref.node_sizes);
  EXPECT_EQ(grp.intra.alpha_s, grp_ref.intra.alpha_s);
  EXPECT_EQ(grp.intra.beta_bytes_s, grp_ref.intra.beta_bytes_s);
  EXPECT_EQ(grp.inter.alpha_s, grp_ref.inter.alpha_s);
  EXPECT_EQ(grp.inter.beta_bytes_s, grp_ref.inter.beta_bytes_s);

  // Lookups rise, resolver flat — the regression this hook exists to
  // catch.
  const auto after_second = dep.cache_stats();
  EXPECT_EQ(after_second.resolver_calls, after_first.resolver_calls)
      << "repeated identical lookups re-ran the resolver";
  EXPECT_GT(after_second.lookups, after_first.lookups);
}

TEST(DeploymentCache, CopiesShareTheCacheViewsGetFresh) {
  const auto dep = cluster::Deployment::make_topology_aware(
      cluster::Topology::make_dgx_a100(1), 4);
  (void)dep.link(0, 3);
  const auto warm = dep.cache_stats();
  const auto copy = dep;  // shares the cache
  (void)copy.link(0, 3);
  EXPECT_EQ(copy.cache_stats().resolver_calls, warm.resolver_calls);
  const auto view = dep.prefix(2);  // fresh cache: different placement
  EXPECT_EQ(view.cache_stats().lookups, 0u);
}

// ---------------------------------------------------------------------------
// CostBuilder: memoized layer pricing vs full re-evaluation under random
// state churn.

TEST(CostBuilderMemo, MatchesRescanOracleUnderStateChurn) {
  const auto model = model::make_gpt({.num_blocks = 12,
                                      .include_embedding = false,
                                      .include_lm_head = false});
  const pipeline::CostBuilder builder(model, model::LayerCostModel{},
                                      comm::CostModel{}, {});
  std::vector<model::LayerState> states(model.num_layers());
  std::mt19937_64 rng(0xcafe);
  StageMap map = StageMap::uniform(model.num_layers(), 4);
  for (int iter = 0; iter < 200; ++iter) {
    // Perturb a few layers' dynamic state; most layers are cache hits.
    const int n = static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i) {
      auto& st = states[rng() % states.size()];
      st.weight_density = 0.25 + static_cast<double>(rng() % 4) * 0.25;
      st.frozen = rng() % 4 == 0;
      st.token_fraction = 0.5 + static_cast<double>(rng() % 3) * 0.25;
      st.compute_scale = 0.5 + static_cast<double>(rng() % 4) * 0.5;
    }
    if (rng() % 8 == 0) {  // residency changes with the map
      map = random_map(rng, model.num_layers(),
                       2 + static_cast<int>(rng() % 6));
    }
    const auto t_inc = builder.layer_times(states);
    const auto t_ref = testing::layer_times_rescan(builder, model, states);
    ASSERT_EQ(t_inc.size(), t_ref.size());
    for (std::size_t l = 0; l < t_ref.size(); ++l) {
      ASSERT_EQ(t_inc[l].forward_s, t_ref[l].forward_s) << "layer " << l;
      ASSERT_EQ(t_inc[l].backward_input_s, t_ref[l].backward_input_s);
      ASSERT_EQ(t_inc[l].backward_weight_s, t_ref[l].backward_weight_s);
    }
    const auto m_inc = builder.layer_memory_bytes(states, map);
    const auto m_ref =
        testing::layer_memory_bytes_rescan(builder, model, states, map);
    ASSERT_EQ(m_inc, m_ref) << "iter " << iter;
  }
}

}  // namespace
}  // namespace dynmo
