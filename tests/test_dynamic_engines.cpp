// Unit tests for the six dynamism engines: schedules, monotonicity,
// determinism, and the statistical properties the paper relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/stats.hpp"
#include "dynamic/early_exit.hpp"
#include "dynamic/freezing.hpp"
#include "dynamic/mod.hpp"
#include "dynamic/moe.hpp"
#include "dynamic/pruning.hpp"
#include "dynamic/sparse_attn.hpp"

namespace dynmo::dynamic {
namespace {

model::ModelDesc gpt(std::size_t blocks) {
  return model::make_gpt({.num_blocks = blocks,
                          .include_embedding = false,
                          .include_lm_head = false});
}

// ---------------------------------------------------------------- pruning

TEST(PruningSchedule, ZhuGuptaCheckpoints) {
  // Paper §5.1: with t0=3000, Δt=1000, n=4, S_f=0.9, sparsity after each
  // step is 52%, 79%, 90% (and 90% at the end).
  PruningSchedule s;
  EXPECT_DOUBLE_EQ(s.sparsity_at(0), 0.0);
  EXPECT_DOUBLE_EQ(s.sparsity_at(2999), 0.0);
  EXPECT_NEAR(s.sparsity_at(4000), 0.52, 0.01);
  EXPECT_NEAR(s.sparsity_at(5000), 0.79, 0.01);
  EXPECT_NEAR(s.sparsity_at(6000), 0.876, 0.01);
  EXPECT_DOUBLE_EQ(s.sparsity_at(7000), 0.9);
  EXPECT_DOUBLE_EQ(s.sparsity_at(100000), 0.9);
}

TEST(PruningSchedule, StepDetection) {
  PruningSchedule s;
  EXPECT_TRUE(s.is_pruning_step(3000));
  EXPECT_TRUE(s.is_pruning_step(5000));
  EXPECT_TRUE(s.is_pruning_step(7000));
  EXPECT_FALSE(s.is_pruning_step(3500));
  EXPECT_FALSE(s.is_pruning_step(8000));
  EXPECT_FALSE(s.is_pruning_step(0));
}

TEST(PruningEngine, GlobalRetentionMatchesTarget) {
  const auto m = gpt(24);
  PruningEngine eng(m, {});
  for (double s : {0.3, 0.6, 0.9}) {
    const auto keep = eng.retention_at_sparsity(s);
    // Weighted average retention across prunable layers ≈ 1 - s.
    double kept_params = 0.0;
    double total_params = 0.0;
    for (std::size_t l = 0; l < m.num_layers(); ++l) {
      kept_params += keep[l] * static_cast<double>(m.layers[l].params);
      total_params += static_cast<double>(m.layers[l].params);
    }
    EXPECT_NEAR(kept_params / total_params, 1.0 - s, 0.01) << s;
  }
}

TEST(PruningEngine, RetentionSkewAcrossLayers) {
  // The load-imbalance source: at 90% sparsity some layers retain much
  // more than others.
  const auto m = gpt(24);
  PruningEngine eng(m, {});
  const auto keep = eng.retention_at_sparsity(0.9);
  const double lo = *std::min_element(keep.begin(), keep.end());
  const double hi = *std::max_element(keep.begin(), keep.end());
  EXPECT_GT(hi / std::max(lo, 1e-9), 2.0);
}

TEST(PruningEngine, StepSetsDensityAndBackend) {
  const auto m = gpt(8);
  PruningEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(7000, st);  // final sparsity 0.9
  int sputnik = 0;
  for (const auto& s : st) {
    EXPECT_LE(s.weight_density, 1.0);
    if (s.spmm_backend == hw::SpmmBackend::Sputnik) {
      ++sputnik;
      EXPECT_LT(s.weight_density, hw::KernelCostModel::kSputnikRelEff);
    }
  }
  EXPECT_GT(sputnik, 0);  // most layers cross the Sputnik threshold at 90%
}

TEST(PruningEngine, MonotoneSparsityMonotoneDensity) {
  const auto m = gpt(8);
  PruningEngine eng(m, {});
  std::vector<model::LayerState> early(m.num_layers()), late(m.num_layers());
  eng.step(4000, early);
  eng.step(7000, late);
  for (std::size_t l = 0; l < m.num_layers(); ++l) {
    EXPECT_LE(late[l].weight_density, early[l].weight_density + 1e-12);
  }
}

// --------------------------------------------------------------- freezing

TEST(FreezingEngine, FrontBiasAndMonotonicity) {
  const auto m = gpt(24);
  FreezingEngine eng(m, {});
  // Freezing never reverses.
  std::size_t prev = 0;
  for (std::int64_t it = 0; it <= 20000; it += 300) {
    const std::size_t now = eng.frozen_count(it);
    EXPECT_GE(now, prev);
    prev = now;
  }
  // Early layers freeze earlier on average than late prunable layers.
  const auto early_at = eng.freeze_iteration(1);
  const auto later_at = eng.freeze_iteration(17);
  EXPECT_LE(early_at, later_at);
}

TEST(FreezingEngine, TailNeverFreezes) {
  const auto m = gpt(20);
  FreezingEngineConfig cfg;
  cfg.never_freeze_tail = 0.25;
  FreezingEngine eng(m, cfg);
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(1'000'000'000, st);
  for (std::size_t l = 15; l < 20; ++l) EXPECT_FALSE(st[l].frozen) << l;
  // But a substantial prefix is frozen by then.
  EXPECT_TRUE(st[0].frozen);
}

TEST(FreezingEngine, DecisionsLandOnCheckBoundaries) {
  const auto m = gpt(16);
  FreezingEngineConfig cfg;
  cfg.check_interval = 300;
  FreezingEngine eng(m, cfg);
  for (std::size_t l = 0; l < m.num_layers(); ++l) {
    const auto at = eng.freeze_iteration(l);
    if (at != std::numeric_limits<std::int64_t>::max()) {
      EXPECT_EQ(at % 300, 0) << l;
    }
  }
}

TEST(FreezingEngine, EgeriaOverheadGrowsWithDepth) {
  EXPECT_GT(FreezingEngine::egeria_check_overhead_s(48),
            FreezingEngine::egeria_check_overhead_s(24));
}

// ------------------------------------------------------------ sparse attn

TEST(SparseAttn, DensityBounds) {
  const auto m = gpt(16);
  SparseAttnEngine eng(m, {});
  for (std::int64_t it : {0, 17, 500, 9999}) {
    for (std::size_t l = 0; l < m.num_layers(); ++l) {
      const double d = eng.layer_density(l, it);
      EXPECT_GE(d, 0.02);
      EXPECT_LE(d, 0.5);
    }
  }
}

TEST(SparseAttn, TemporallyCorrelatedWithinHashEpoch) {
  const auto m = gpt(16);
  SparseAttnEngine eng(m, {});
  // Same hash epoch (iter/25): densities nearly equal; different epochs
  // decorrelate.
  double same_delta = 0.0;
  double cross_delta = 0.0;
  for (std::size_t l = 0; l < m.num_layers(); ++l) {
    same_delta += std::abs(eng.layer_density(l, 100) -
                           eng.layer_density(l, 101));
    cross_delta += std::abs(eng.layer_density(l, 100) -
                            eng.layer_density(l, 300));
  }
  EXPECT_LT(same_delta, cross_delta);
}

TEST(SparseAttn, StepWritesComputeScale) {
  const auto m = gpt(8);
  SparseAttnEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(42, st);
  for (const auto& s : st) {
    EXPECT_GT(s.compute_scale, 0.0);
    EXPECT_LE(s.compute_scale, 1.0);  // density <= 0.5 → scale <= 1
  }
  // Mean reduction is substantial (that's the point of sparsifying).
  double mean = 0.0;
  for (const auto& s : st) mean += s.compute_scale;
  mean /= static_cast<double>(st.size());
  EXPECT_LT(mean, 0.8);
}

// The density law with its same-bucket pairs counted by the O(B²) loop
// over all causal tile pairs (q >= k): the oracle for the engine's bucket
// histogram.  Draws in the engine's order, from the same seeds.
double pair_loop_density(const SparseAttnEngineConfig& cfg,
                         std::size_t layer, std::int64_t iter) {
  Rng bias_rng(hash_mix(cfg.seed, 0x5a77));
  double bias = 0.0;
  for (std::size_t l = 0; l <= layer; ++l) {
    bias = bias_rng.normal(0.0, cfg.layer_spread);
  }
  Rng rng(hash_mix(cfg.seed ^ 0xa77e, layer,
                   static_cast<std::uint64_t>(iter / 25)));
  std::vector<std::uint64_t> bucket(
      static_cast<std::size_t>(cfg.blocks_per_seq));
  for (auto& b : bucket) {
    b = rng.zipf(static_cast<std::uint64_t>(cfg.num_buckets),
                 cfg.bucket_zipf_s);
  }
  std::int64_t same = 0;
  std::int64_t total = 0;
  for (std::size_t q = 0; q < bucket.size(); ++q) {
    for (std::size_t k = 0; k <= q; ++k) {
      ++total;
      if (bucket[q] == bucket[k]) ++same;
    }
  }
  const double causal_frac =
      static_cast<double>(same) / static_cast<double>(total);
  Rng fast(hash_mix(cfg.seed ^ 0xfa50, layer,
                    static_cast<std::uint64_t>(iter)));
  const double jitter = std::exp(rng.normal(0.0, cfg.iteration_jitter) +
                                 bias + fast.normal(0.0, 0.05));
  return std::clamp(0.5 * causal_frac * jitter, cfg.min_density, 0.5);
}

TEST(SparseAttn, HistogramCountMatchesPairLoop) {
  const auto m = gpt(12);
  std::vector<SparseAttnEngineConfig> cfgs(4);
  cfgs[1].blocks_per_seq = 7;
  cfgs[1].num_buckets = 2;
  cfgs[2].blocks_per_seq = 200;
  cfgs[2].num_buckets = 64;
  cfgs[2].bucket_zipf_s = 2.5;
  cfgs[3].seed = 99;
  cfgs[3].bucket_zipf_s = 1.01;
  for (const auto& cfg : cfgs) {
    SparseAttnEngine eng(m, cfg);
    for (std::int64_t it : {0, 24, 25, 777}) {
      for (std::size_t l = 0; l < m.num_layers(); ++l) {
        EXPECT_EQ(eng.layer_density(l, it), pair_loop_density(cfg, l, it))
            << "B=" << cfg.blocks_per_seq << " layer " << l << " iter " << it;
      }
    }
  }
}

// step() keeps one hash-epoch draw per layer.  In any iteration order —
// here backwards and across epoch boundaries — it must write exactly
// layer_density(l, iter) / 0.5 and leave non-attention layers alone.
TEST(SparseAttn, StepMatchesLayerDensityInAnyOrder) {
  const auto m = model::make_gpt({.num_blocks = 8});
  SparseAttnEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  for (std::int64_t it : {0, 24, 25, 49, 10, 300, 26}) {
    eng.step(it, st);
    for (std::size_t l = 0; l < m.num_layers(); ++l) {
      const auto kind = m.layers[l].kind;
      const bool attention = kind == model::LayerKind::TransformerBlock ||
                             kind == model::LayerKind::MoeTransformerBlock;
      EXPECT_EQ(st[l].compute_scale,
                attention ? eng.layer_density(l, it) / 0.5 : 1.0)
          << "layer " << l << " iter " << it;
    }
  }
}

// Two engines, one stepped through every iteration first and one not: the
// cache is a pure function of (layer, epoch), so their states agree.
TEST(SparseAttn, StateIndependentOfCallHistory) {
  const auto m = gpt(16);
  SparseAttnEngine walked(m, {}), fresh(m, {});
  std::vector<model::LayerState> sw(16), sf(16);
  for (std::int64_t it = 0; it < 60; ++it) walked.step(it, sw);
  for (std::int64_t it : {26, 300, 24, 49, 59}) {
    walked.step(it, sw);
    fresh.step(it, sf);
    for (std::size_t l = 0; l < 16; ++l) {
      EXPECT_EQ(sw[l].compute_scale, sf[l].compute_scale)
          << "layer " << l << " iter " << it;
    }
  }
}

// ------------------------------------------------------------- early exit

TEST(EarlyExit, SurvivalMonotoneInDepth) {
  const auto m = gpt(32);
  EarlyExitEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(10000, st);
  for (std::size_t l = 1; l < st.size(); ++l) {
    EXPECT_LE(st[l].token_fraction, st[l - 1].token_fraction + 1e-12);
  }
  EXPECT_DOUBLE_EQ(st[0].token_fraction, 1.0);  // warm prefix
  EXPECT_LT(st.back().token_fraction, 0.2);     // deep tail exits
}

TEST(EarlyExit, ConfidenceRampsOverTraining) {
  const auto m = gpt(32);
  EarlyExitEngine eng(m, {});
  // Later in training, more tokens exit (deep layers lighter).
  EXPECT_GT(eng.survival(30, 100), eng.survival(30, 10000));
  EXPECT_NEAR(eng.survival(30, 0), 1.0, 0.15);
}

TEST(EarlyExit, HeadAndEmbeddingExempt) {
  const auto m = model::make_gpt({.num_blocks = 8});  // with emb + head
  EarlyExitEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(10000, st);
  EXPECT_DOUBLE_EQ(st.front().token_fraction, 1.0);  // embedding
  EXPECT_DOUBLE_EQ(st.back().token_fraction, 1.0);   // lm head
}

TEST(EarlyExit, DeeperModelsSaveRelativelyMore) {
  EarlyExitEngineConfig cfg;
  const auto shallow = gpt(24);
  const auto deep = gpt(48);
  EarlyExitEngine e24(shallow, cfg), e48(deep, cfg);
  std::vector<model::LayerState> s24(24), s48(48);
  e24.step(10000, s24);
  e48.step(10000, s48);
  const auto frac = [](std::span<const model::LayerState> st) {
    double acc = 0.0;
    for (const auto& s : st) acc += s.token_fraction;
    return acc / static_cast<double>(st.size());
  };
  EXPECT_LT(frac(s48), frac(s24));
}

// -------------------------------------------------------------------- MoE

TEST(Moe, RouteCountsConserveTokens) {
  const auto m = model::make_moe(model::mixtral_8x7b_config(), "m");
  MoeEngineConfig cfg;
  cfg.tokens_per_microbatch = 1024;
  MoeEngine eng(m, cfg);
  const auto counts = eng.route_tokens(1, 7, 0);
  std::size_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, 1024u * m.layers[1].top_k);
}

TEST(Moe, ExpertChoicePerfectlyBalanced) {
  const auto m = model::make_moe(model::mixtral_8x7b_config(), "m");
  MoeEngineConfig cfg;
  cfg.routing = MoeRouting::ExpertChoice;
  MoeEngine eng(m, cfg);
  const auto counts = eng.route_tokens(1, 7, 0);
  EXPECT_NEAR(MoeEngine::bottleneck_factor(counts), 1.0, 1e-9);
}

TEST(Moe, SBaseNearlyBalanced) {
  const auto m = model::make_moe(model::mixtral_8x7b_config(), "m");
  MoeEngineConfig aux, sbase;
  sbase.routing = MoeRouting::SBase;
  MoeEngine e_aux(m, aux), e_sbase(m, sbase);
  double aux_f = 0.0, sbase_f = 0.0;
  for (int it = 0; it < 20; ++it) {
    aux_f += MoeEngine::bottleneck_factor(e_aux.route_tokens(1, it, 0));
    sbase_f += MoeEngine::bottleneck_factor(e_sbase.route_tokens(1, it, 0));
  }
  // S-BASE's auction caps expert load at capacity: strictly tighter.
  EXPECT_LT(sbase_f, aux_f);
  EXPECT_NEAR(sbase_f / 20.0, 1.0, 0.05);
  // Aux-loss routing keeps a persistent hotspot.
  EXPECT_GT(aux_f / 20.0, 1.1);
}

TEST(Moe, StepSetsLoadsOnlyOnMoeBlocks) {
  const auto m = model::make_moe(model::llama_moe_3_5b_config(), "m");
  MoeEngineConfig cfg;
  cfg.tokens_per_microbatch = 512;
  cfg.num_microbatches = 2;
  MoeEngine eng(m, cfg);
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(3, st);
  EXPECT_DOUBLE_EQ(st.front().moe_load, 1.0);  // embedding untouched
  bool any = false;
  for (std::size_t l = 0; l < st.size(); ++l) {
    if (m.layers[l].kind == model::LayerKind::MoeTransformerBlock) {
      EXPECT_GT(st[l].moe_load, 0.9);
      any = true;
    }
  }
  EXPECT_TRUE(any);
  // Microbatch scale hook is available and positive.
  const auto scale = eng.microbatch_scale(3);
  ASSERT_TRUE(static_cast<bool>(scale));
  EXPECT_GT(scale(1, 0), 0.0);
}

// -------------------------------------------------------------------- MoD

TEST(Mod, OnlyAlternateBlocksRoute) {
  const auto m = gpt(8);
  ModEngine eng(m, {});
  // route_every=2: blocks 1,3,5,7 are MoD blocks.
  EXPECT_FALSE(eng.is_mod_block(0));
  EXPECT_TRUE(eng.is_mod_block(1));
  EXPECT_FALSE(eng.is_mod_block(2));
  EXPECT_TRUE(eng.is_mod_block(7));
}

TEST(Mod, RoutedFractionBounds) {
  const auto m = gpt(16);
  ModEngine eng(m, {});
  for (std::int64_t it : {0, 1, 99, 5000}) {
    for (std::size_t l = 0; l < 16; ++l) {
      const double f = eng.routed_fraction(l, it);
      EXPECT_GE(f, 0.05);
      EXPECT_LE(f, 1.0);
      if (!eng.is_mod_block(l)) {
        EXPECT_DOUBLE_EQ(f, 1.0);
      }
    }
  }
}

TEST(Mod, PersistentPerLayerCapacity) {
  const auto m = gpt(16);
  ModEngine eng(m, {});
  // Same layer, adjacent iterations within a drift block: highly similar.
  const double a = eng.routed_fraction(1, 500);
  const double b = eng.routed_fraction(1, 501);
  EXPECT_NEAR(a, b, 0.25 * a);
  // Different layers differ systematically.
  double spread = 0.0;
  for (std::size_t l = 1; l < 16; l += 2) {
    spread = std::max(spread, std::abs(eng.routed_fraction(l, 500) -
                                       eng.routed_fraction(1, 500)));
  }
  EXPECT_GT(spread, 0.05);
}

TEST(Mod, ImbalanceMagnitudeMatchesPaper) {
  // Static stage loads should show roughly the paper's ~18% MoD imbalance
  // (Eq. 2) on a 48-layer model over 8 stages.
  const auto m = gpt(48);
  ModEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  model::LayerCostModel costs{};
  RunningStats imb;
  for (std::int64_t it = 0; it < 200; it += 10) {
    eng.step(it, st);
    std::vector<double> times;
    for (std::size_t l = 0; l < st.size(); ++l) {
      times.push_back(costs.layer_times(m.layers[l], st[l], 2).total_s());
    }
    const auto map = pipeline::StageMap::uniform(st.size(), 8);
    imb.add(load_imbalance(map.stage_loads(times)));
  }
  EXPECT_GT(imb.mean(), 0.08);
  EXPECT_LT(imb.mean(), 0.45);
}

// -------------------------------------------------------------- generic

TEST(Engines, ComputeFractionReflectsSavings) {
  const auto m = gpt(32);
  EarlyExitEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(10000, st);
  const double frac = eng.compute_fraction(st);
  EXPECT_LT(frac, 0.7);
  EXPECT_GT(frac, 0.05);
}

TEST(Engines, DeterministicAcrossInstances) {
  const auto m = gpt(16);
  SparseAttnEngine a(m, {}), b(m, {});
  std::vector<model::LayerState> sa(16), sb(16);
  a.step(123, sa);
  b.step(123, sb);
  for (std::size_t l = 0; l < 16; ++l) {
    EXPECT_DOUBLE_EQ(sa[l].compute_scale, sb[l].compute_scale);
  }
}

}  // namespace
}  // namespace dynmo::dynamic
