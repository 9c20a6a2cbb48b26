#include "dynamic/sparse_attn.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace dynmo::dynamic {

namespace {

/// The hash functions are re-drawn as activations drift, every ~25
/// iterations in continual training.
constexpr std::int64_t kHashEpochIters = 25;

}  // namespace

SparseAttnEngine::SparseAttnEngine(const model::ModelDesc& model,
                                   SparseAttnEngineConfig cfg)
    : model_(&model), cfg_(cfg), epoch_cache_(model.num_layers()) {
  DYNMO_CHECK(cfg.num_buckets > 1, "need at least two hash buckets");
  Rng rng(hash_mix(cfg.seed, 0x5a77));
  layer_bias_.resize(model.num_layers(), 0.0);
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    layer_bias_[l] = rng.normal(0.0, cfg.layer_spread);
  }
}

bool SparseAttnEngine::is_attention(std::size_t layer) const {
  const auto kind = model_->layers[layer].kind;
  return kind == model::LayerKind::TransformerBlock ||
         kind == model::LayerKind::MoeTransformerBlock;
}

SparseAttnEngine::EpochDraw SparseAttnEngine::draw_epoch(
    std::size_t layer, std::int64_t epoch) const {
  // Simulate bucket assignment of the flash tiles: tile b gets a bucket by
  // Zipf popularity; two causal tiles attend iff same bucket.  Density =
  // same-bucket causal pairs / all causal pairs.  One draw per hash epoch
  // keeps the block structure strongly correlated across consecutive
  // iterations (what makes per-iteration rebalancing worthwhile).
  Rng rng(hash_mix(cfg_.seed ^ 0xa77e, layer,
                   static_cast<std::uint64_t>(epoch)));
  const auto buckets = static_cast<std::uint64_t>(cfg_.num_buckets);
  std::vector<std::int64_t> tiles_in(static_cast<std::size_t>(buckets), 0);
  const std::int64_t B = cfg_.blocks_per_seq;
  for (std::int64_t b = 0; b < B; ++b) {
    ++tiles_in[rng.zipf(buckets, cfg_.bucket_zipf_s)];
  }
  // A bucket holding c tiles has c(c+1)/2 causal pairs (q >= k).
  std::int64_t same = 0;
  for (const std::int64_t c : tiles_in) same += c * (c + 1) / 2;
  const std::int64_t total = B * (B + 1) / 2;
  EpochDraw e;
  e.causal_frac = static_cast<double>(same) / static_cast<double>(total);
  // Slow jitter tied to the hash epoch, on top of the layer bias.
  e.log_slow = rng.normal(0.0, cfg_.iteration_jitter) + layer_bias_[layer];
  return e;
}

double SparseAttnEngine::density(std::size_t layer, std::int64_t iter,
                                 const EpochDraw& e) const {
  // Fast white noise on top of the epoch's draw.
  Rng fast(hash_mix(cfg_.seed ^ 0xfa50, layer,
                    static_cast<std::uint64_t>(iter)));
  const double jitter = std::exp(e.log_slow + fast.normal(0.0, 0.05));
  const double density = 0.5 * e.causal_frac * jitter;
  return std::clamp(density, cfg_.min_density, 0.5);
}

double SparseAttnEngine::layer_density(std::size_t layer,
                                       std::int64_t iter) const {
  DYNMO_CHECK(layer < model_->num_layers(), "layer out of range");
  if (!is_attention(layer)) {
    return 0.5;  // non-attention layers: dense causal convention
  }
  return density(layer, iter, draw_epoch(layer, iter / kHashEpochIters));
}

void SparseAttnEngine::step(std::int64_t iter,
                            std::span<model::LayerState> states) {
  DYNMO_CHECK(states.size() == model_->num_layers(), "state size mismatch");
  const std::int64_t epoch = iter / kHashEpochIters;
  for (std::size_t l = 0; l < states.size(); ++l) {
    if (!is_attention(l)) continue;
    CachedEpoch& c = epoch_cache_[l];
    if (!c.valid || c.epoch != epoch) c = {epoch, true, draw_epoch(l, epoch)};
    // Paper §2.4 models the layer load as s_i(k)·c_i — the sparsity factor
    // scales the whole layer (the target regime is long sequences where
    // attention dominates block time).  density/0.5 normalizes so that a
    // dense causal mask means scale 1.
    states[l].compute_scale = density(l, iter, c.draw) / 0.5;
  }
}

}  // namespace dynmo::dynamic
