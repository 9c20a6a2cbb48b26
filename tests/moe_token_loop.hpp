// Reference oracles for MoE routing, kept only for tests.
//
// token_loop_counts is the per-token loop that MoeEngine::token_choice_counts
// replaces.  Each token draws its first expert from the gate, then each of
// its top_k − 1 later picks from the gate, resampling while the pick equals
// the first.  O(tokens · top_k · E) per call; the count-level sampler must
// match it in distribution.
//
// sbase_round_robin is the token-at-a-time S-BASE auction that
// MoeEngine::sbase_balance computes in closed form; the two must agree
// exactly.
#pragma once

#include <cstddef>
#include <vector>

#include "core/rng.hpp"

namespace dynmo::testing {

inline std::vector<std::size_t> token_loop_counts(
    const std::vector<double>& gate, std::size_t tokens, std::size_t top_k,
    Rng& rng) {
  std::vector<std::size_t> counts(gate.size(), 0);
  for (std::size_t t = 0; t < tokens; ++t) {
    const std::size_t first = rng.categorical(gate);
    ++counts[first];
    for (std::size_t j = 1; j < top_k; ++j) {
      std::size_t e = rng.categorical(gate);
      while (e == first) e = rng.categorical(gate);
      ++counts[e];
    }
  }
  return counts;
}

/// Reference for MoeEngine::sbase_balance: the auction's token-at-a-time
/// round-robin hand-out of the overflow.
inline void sbase_round_robin(std::vector<std::size_t>& counts,
                              std::size_t total) {
  const std::size_t E = counts.size();
  const std::size_t cap = (total + E - 1) / E;
  std::size_t overflow = 0;
  for (auto& c : counts) {
    if (c > cap) {
      overflow += c - cap;
      c = cap;
    }
  }
  for (std::size_t e = 0; overflow > 0; e = (e + 1) % E) {
    if (counts[e] < cap) {
      ++counts[e];
      --overflow;
    }
  }
}

}  // namespace dynmo::testing
