// Mixture-of-Experts routing engine (paper §2.1, §4.2.1).
//
// Simulates token→expert routing at every iteration and converts the
// resulting per-expert token counts into a per-layer load factor (the
// bottleneck expert's relative load — in expert-parallel execution the
// slowest expert gates the layer).  Three routing schemes:
//   AuxLoss      — Mixtral-style gating with an auxiliary load-balancing
//                  loss that slowly pulls expert popularity toward uniform
//                  but never removes skew (~25% steady-state imbalance).
//   SBase        — S-BASE: an assignment (auction) step equalizes expert
//                  loads up to capacity rounding (small residual imbalance).
//   ExpertChoice — experts pick their top tokens: perfectly balanced by
//                  construction (used by the MoD engine's underlying MoE).
// Token-choice routing (AuxLoss, SBase) is drawn at count level — one
// multinomial per first expert, O(E²) binomials per (layer, microbatch),
// independent of the token count; see token_choice_counts() for the law
// and docs/COST_MODEL.md#moe-routing for the equivalence contract.
#pragma once

#include <span>
#include <vector>

#include "core/rng.hpp"
#include "dynamic/dynamism.hpp"

namespace dynmo::dynamic {

enum class MoeRouting { AuxLoss, SBase, ExpertChoice };

const char* to_string(MoeRouting r);

struct MoeEngineConfig {
  MoeRouting routing = MoeRouting::AuxLoss;
  std::size_t tokens_per_microbatch = 4096;  ///< sampled routing population
  int num_microbatches = 4;
  double popularity_zipf_s = 1.15;  ///< token→expert affinity skew
  /// Routers collapse to different degrees per layer (well documented for
  /// aux-loss gating): each layer's effective Zipf exponent is
  /// popularity_zipf_s·lognormal(0, layer_skew_spread), persistent across
  /// training.  This between-layer variance is what DynMo's layer moves
  /// absorb; the within-iteration microbatch noise is not fixable by any
  /// placement and shows up as DynMo's residual bubble (~8%, Fig. 3).
  double layer_skew_spread = 0.45;
  double popularity_drift = 0.02;   ///< per-iteration popularity evolution
  double aux_loss_pull = 0.01;      ///< per-iteration pull toward uniform
  std::uint64_t seed = 0x5eed;
};

class MoeEngine final : public DynamismEngine {
 public:
  MoeEngine(const model::ModelDesc& model, MoeEngineConfig cfg);

  std::string name() const override;
  bool is_dynamism_point(std::int64_t iter) const override {
    (void)iter;
    return true;  // routing changes every iteration
  }
  void step(std::int64_t iter, std::span<model::LayerState> states) override;
  pipeline::MicrobatchScaleFn microbatch_scale(std::int64_t iter) override;
  std::int64_t recommended_rebalance_interval() const override { return 1; }

  /// Per-expert token histogram for one (layer, microbatch) routing draw —
  /// exposed for tests and the imbalance characterization bench.  The
  /// draw is seeded from (seed, layer, iter, microbatch) alone, so it
  /// never depends on call order.
  std::vector<std::size_t> route_tokens(std::size_t layer, std::int64_t iter,
                                        int microbatch) const;

  /// The gate weights (unnormalised) a layer routes with at `iter`.
  std::vector<double> expert_popularity(std::size_t layer,
                                        std::int64_t iter) const;

  /// Token-choice routing of `tokens` tokens with top-`top_k` gating, as
  /// per-expert counts.  The law sampled, per token independently:
  ///   - the first pick f is drawn from the gate;
  ///   - each of the top_k − 1 later picks is drawn from the gate with f
  ///     removed — later picks avoid f but may repeat each other, so for
  ///     top_k > 2 they are not pairwise distinct.
  /// Drawn at count level in O(E²) binomials, independent of `tokens`:
  /// first-pick counts n ~ Multinomial(tokens, gate), then for each f
  /// with n_f > 0, Multinomial((top_k − 1)·n_f, gate without f).  Summed
  /// over tokens this is exactly the per-token law; the token loop is kept
  /// as the test oracle in tests/moe_token_loop.hpp.
  static std::vector<std::size_t> token_choice_counts(
      std::span<const double> gate, std::size_t tokens, std::size_t top_k,
      Rng& rng);

  /// S-BASE auction on a histogram of `total` routed tokens: overflow
  /// above capacity ceil(total / E) is handed out one token at a time,
  /// round-robin from expert 0, to experts below capacity.  Computed in
  /// closed form, O(E·log(capacity)).
  static void sbase_balance(std::vector<std::size_t>& counts,
                            std::size_t total);

  /// Bottleneck factor max_e(tokens_e) / mean_e(tokens_e) for a histogram.
  static double bottleneck_factor(std::span<const std::size_t> per_expert);

 private:
  /// route_tokens() with the layer's expert popularity already computed
  /// (step() draws every microbatch of a layer from one popularity).
  std::vector<std::size_t> route_tokens(std::size_t layer, std::int64_t iter,
                                        int microbatch,
                                        const std::vector<double>& pop) const;

  const model::ModelDesc* model_;
  MoeEngineConfig cfg_;
  std::vector<std::size_t> moe_layers_;  ///< indices of MoE blocks
  // Cached per-(iter) microbatch load factors, refreshed in step().
  std::vector<std::vector<double>> mb_load_;  ///< [layer][microbatch]
  std::vector<double> mb_mean_;  ///< [layer] mean of mb_load_[layer]
  std::int64_t cached_iter_ = -1;
};

}  // namespace dynmo::dynamic
