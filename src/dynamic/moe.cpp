#include "dynamic/moe.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/stats.hpp"

namespace dynmo::dynamic {

namespace {

/// Adds one Multinomial(n, weights with index `skip` removed) draw to
/// `out`, as conditional binomials from left to right: expert i takes
/// Binomial(n_left, w_i / Σ_{j ≥ i, j ≠ skip} w_j).  The suffix sums make
/// the last eligible expert's probability exactly 1, so all n land.
/// `skip` ≥ weights.size() removes nothing.  `suffix` is scratch space.
void add_multinomial(Rng& rng, std::size_t n, std::span<const double> w,
                     std::size_t skip, std::vector<double>& suffix,
                     std::vector<std::size_t>& out) {
  const std::size_t E = w.size();
  suffix.assign(E + 1, 0.0);
  for (std::size_t i = E; i-- > 0;) {
    suffix[i] = suffix[i + 1] + (i == skip ? 0.0 : w[i]);
  }
  DYNMO_CHECK(suffix[0] > 0.0, "routing gate weights sum to zero");
  for (std::size_t i = 0; i < E && n > 0; ++i) {
    if (i == skip) continue;
    const auto x = static_cast<std::size_t>(rng.binomial(n, w[i] / suffix[i]));
    out[i] += x;
    n -= x;
  }
}

}  // namespace

const char* to_string(MoeRouting r) {
  switch (r) {
    case MoeRouting::AuxLoss: return "aux_loss";
    case MoeRouting::SBase: return "s-base";
    case MoeRouting::ExpertChoice: return "expert_choice";
  }
  return "?";
}

MoeEngine::MoeEngine(const model::ModelDesc& model, MoeEngineConfig cfg)
    : model_(&model), cfg_(cfg) {
  for (std::size_t l = 0; l < model.layers.size(); ++l) {
    if (model.layers[l].kind == model::LayerKind::MoeTransformerBlock) {
      moe_layers_.push_back(l);
    }
  }
  DYNMO_CHECK(!moe_layers_.empty(), "MoeEngine needs MoE blocks in the model");
}

std::string MoeEngine::name() const {
  return std::string("moe/") + to_string(cfg_.routing);
}

std::vector<double> MoeEngine::expert_popularity(std::size_t layer,
                                                 std::int64_t iter) const {
  const auto& desc = model_->layers[layer];
  const std::size_t E = desc.num_experts;
  // Base popularity: deterministic per-layer Zipf permutation, drifting
  // slowly with the iteration (token distribution shifts over training).
  Rng rng(hash_mix(cfg_.seed, layer, 0xdecade));
  const double layer_s =
      cfg_.popularity_zipf_s * std::exp(rng.normal(0.0, cfg_.layer_skew_spread));
  std::vector<double> pop(E);
  for (std::size_t e = 0; e < E; ++e) {
    pop[e] = 1.0 / std::pow(static_cast<double>(e) + 1.0, layer_s);
  }
  // Random expert order per layer so skew doesn't always hit expert 0.
  for (std::size_t e = E; e > 1; --e) {
    std::swap(pop[e - 1], pop[rng.uniform_int(e)]);
  }
  // Drift: popularity slowly rotates over iterations.
  Rng drift(hash_mix(cfg_.seed, layer,
                     static_cast<std::uint64_t>(iter / 50)));
  for (double& p : pop) {
    p *= std::exp(drift.normal(0.0, cfg_.popularity_drift * 10.0));
  }
  // Auxiliary-loss pull: over training, popularity relaxes toward uniform
  // but saturates (the paper observes persistent ~25% imbalance).
  const double pull =
      1.0 - std::exp(-cfg_.aux_loss_pull * static_cast<double>(iter % 10000));
  double total = 0.0;
  for (double p : pop) total += p;
  const double uni = total / static_cast<double>(E);
  const double relax = (cfg_.routing == MoeRouting::AuxLoss) ? 0.6 * pull : 0.0;
  for (double& p : pop) p = p * (1.0 - relax) + uni * relax;
  return pop;
}

std::vector<std::size_t> MoeEngine::route_tokens(std::size_t layer,
                                                 std::int64_t iter,
                                                 int microbatch) const {
  return route_tokens(layer, iter, microbatch, expert_popularity(layer, iter));
}

std::vector<std::size_t> MoeEngine::route_tokens(
    std::size_t layer, std::int64_t iter, int microbatch,
    const std::vector<double>& pop) const {
  const auto& desc = model_->layers[layer];
  const std::size_t E = desc.num_experts;
  const std::size_t k = std::max<std::size_t>(1, desc.top_k);

  if (cfg_.routing == MoeRouting::ExpertChoice) {
    // Experts pick equal-size token sets: perfectly balanced.
    return std::vector<std::size_t>(E, cfg_.tokens_per_microbatch * k / E);
  }

  Rng rng(hash_mix(cfg_.seed ^ 0xab1e, layer,
                   static_cast<std::uint64_t>(iter) * 131 +
                       static_cast<std::uint64_t>(microbatch)));
  auto counts = token_choice_counts(pop, cfg_.tokens_per_microbatch, k, rng);
  if (cfg_.routing == MoeRouting::SBase) {
    sbase_balance(counts, cfg_.tokens_per_microbatch * k);
  }
  return counts;
}

std::vector<std::size_t> MoeEngine::token_choice_counts(
    std::span<const double> gate, std::size_t tokens, std::size_t top_k,
    Rng& rng) {
  const std::size_t E = gate.size();
  DYNMO_CHECK(E >= 2 || top_k <= 1,
              "top-" << top_k << " routing needs at least two experts");
  std::vector<double> suffix;
  std::vector<std::size_t> first(E, 0);
  add_multinomial(rng, tokens, gate, E, suffix, first);
  std::vector<std::size_t> counts = first;
  for (std::size_t f = 0; top_k > 1 && f < E; ++f) {
    if (first[f] > 0) {
      add_multinomial(rng, (top_k - 1) * first[f], gate, f, suffix, counts);
    }
  }
  return counts;
}

void MoeEngine::sbase_balance(std::vector<std::size_t>& counts,
                              std::size_t total) {
  // S-BASE reassigns overflow tokens via an auction so each expert ends
  // within one capacity unit of the mean; residual imbalance comes from
  // rounding and the auction order.  The auction hands the overflow out
  // one token at a time, sweeping experts 0..E−1 round-robin and skipping
  // full ones.  In closed form: after R full sweeps expert e has received
  // min(room_e, R); take the most sweeps the overflow covers, then give
  // the remainder to the first experts, in index order, with room left.
  const std::size_t E = counts.size();
  const std::size_t cap = (total + E - 1) / E;
  std::size_t overflow = 0;
  std::vector<std::size_t> room(E);
  for (std::size_t e = 0; e < E; ++e) {
    if (counts[e] > cap) {
      overflow += counts[e] - cap;
      counts[e] = cap;
    }
    room[e] = cap - counts[e];
  }
  const auto served = [&](std::size_t sweeps) {
    std::size_t n = 0;
    for (std::size_t r : room) n += std::min(r, sweeps);
    return n;
  };
  std::size_t sweeps = 0, hi = cap;  // served(cap) = Σ room ≥ overflow
  while (sweeps < hi) {
    const std::size_t mid = sweeps + (hi - sweeps + 1) / 2;
    if (served(mid) <= overflow) {
      sweeps = mid;
    } else {
      hi = mid - 1;
    }
  }
  std::size_t rest = overflow - served(sweeps);
  for (std::size_t e = 0; e < E; ++e) {
    counts[e] += std::min(room[e], sweeps);
    if (rest > 0 && room[e] > sweeps) {
      ++counts[e];
      --rest;
    }
  }
}

double MoeEngine::bottleneck_factor(std::span<const std::size_t> per_expert) {
  if (per_expert.empty()) return 1.0;
  double total = 0.0;
  std::size_t mx = 0;
  for (std::size_t c : per_expert) {
    total += static_cast<double>(c);
    mx = std::max(mx, c);
  }
  const double mean = total / static_cast<double>(per_expert.size());
  return mean > 0.0 ? static_cast<double>(mx) / mean : 1.0;
}

void MoeEngine::step(std::int64_t iter,
                     std::span<model::LayerState> states) {
  DYNMO_CHECK(states.size() == model_->num_layers(), "state size mismatch");
  mb_load_.assign(model_->num_layers(), {});
  mb_mean_.assign(model_->num_layers(), 0.0);
  for (std::size_t l : moe_layers_) {
    const auto pop = expert_popularity(l, iter);
    auto& per_mb = mb_load_[l];
    per_mb.resize(static_cast<std::size_t>(cfg_.num_microbatches));
    double mean = 0.0;
    for (int mb = 0; mb < cfg_.num_microbatches; ++mb) {
      per_mb[static_cast<std::size_t>(mb)] =
          bottleneck_factor(route_tokens(l, iter, mb, pop));
      mean += per_mb[static_cast<std::size_t>(mb)];
    }
    mean /= static_cast<double>(cfg_.num_microbatches);
    mb_mean_[l] = mean;
    states[l].moe_load = mean;
  }
  cached_iter_ = iter;
}

pipeline::MicrobatchScaleFn MoeEngine::microbatch_scale(std::int64_t iter) {
  DYNMO_CHECK(iter == cached_iter_, "call step() before microbatch_scale()");
  // Scale relative to the layer's mean load (the mean is already folded
  // into LayerState::moe_load).
  return [this](std::size_t layer, int mb) -> double {
    if (layer >= mb_load_.size() || mb_load_[layer].empty()) return 1.0;
    const auto& per_mb = mb_load_[layer];
    const double mean = mb_mean_[layer];
    if (mean <= 0.0) return 1.0;
    return per_mb[static_cast<std::size_t>(mb) % per_mb.size()] / mean;
  };
}

}  // namespace dynmo::dynamic
