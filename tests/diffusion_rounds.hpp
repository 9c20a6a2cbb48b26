// Reference oracle for DiffusionBalancer::balance, kept only for tests.
//
// diffusion_reference is the round loop that scores every round: it
// recomputes the bottleneck and the O(S²) potential φ twice per round (once
// for the best-map update, once for the history entry) and allocates a
// fresh sweep buffer, whether or not the round moved a layer.  The
// production loop scores only rounds that moved something; the two must
// agree on every field of DiffusionResult exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "balance/diffusion.hpp"

namespace dynmo::testing {

inline balance::DiffusionResult diffusion_reference(
    const balance::DiffusionRequest& req, const pipeline::StageMap& start) {
  using balance::DiffusionBalancer;
  const std::span<const double> w(req.weights);
  const std::span<const double> mem(req.memory_bytes);
  const int S = start.num_stages();
  std::vector<double> cap(static_cast<std::size_t>(S), 1.0);
  if (!req.capacities.empty()) cap = req.capacities;

  std::vector<std::size_t> b = start.boundaries();
  const auto stage_sum = [&](int s, std::span<const double> v) {
    double acc = 0.0;
    if (v.empty()) return acc;
    for (std::size_t l = b[static_cast<std::size_t>(s)];
         l < b[static_cast<std::size_t>(s) + 1]; ++l) {
      acc += v[l];
    }
    return acc;
  };
  std::vector<double> loads(static_cast<std::size_t>(S));
  std::vector<double> mems(static_cast<std::size_t>(S));
  std::vector<double> norm(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    const auto is = static_cast<std::size_t>(s);
    loads[is] = stage_sum(s, w);
    mems[is] = stage_sum(s, mem);
    norm[is] = loads[is] / cap[is];
  }

  const double total = std::accumulate(norm.begin(), norm.end(), 0.0);
  const double gamma = req.gamma > 0.0 ? req.gamma : 1e-3 * total;
  const int max_rounds =
      req.max_rounds > 0
          ? req.max_rounds
          : DiffusionBalancer::lemma2_round_bound(S, total, gamma);

  balance::DiffusionResult res;
  res.phi_history.push_back(DiffusionBalancer::potential(norm));

  constexpr double kAlpha = 0.5;
  std::vector<double> virt = norm;
  std::vector<double> edge_flow(static_cast<std::size_t>(std::max(0, S - 1)),
                                0.0);

  const auto realize_flows = [&]() -> int {
    int moves = 0;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (int a = 0; a + 1 < S; ++a) {
        const auto ia = static_cast<std::size_t>(a);
        const double owed = edge_flow[ia];
        if (owed > 0.0 && b[ia + 1] > b[ia]) {
          const std::size_t layer = b[ia + 1] - 1;
          const double lw = w[layer];
          const double lm = mem.empty() ? 0.0 : mem[layer];
          const bool closer = std::abs(owed - lw) < owed - 1e-15;
          const bool mem_ok = req.mem_capacity <= 0.0 ||
                              mems[ia + 1] + lm <= req.mem_capacity;
          if (closer && mem_ok) {
            --b[ia + 1];
            loads[ia] -= lw;
            loads[ia + 1] += lw;
            norm[ia] = loads[ia] / cap[ia];
            norm[ia + 1] = loads[ia + 1] / cap[ia + 1];
            mems[ia] -= lm;
            mems[ia + 1] += lm;
            edge_flow[ia] -= lw;
            ++moves;
            progressed = true;
          }
        } else if (owed < 0.0 && b[ia + 2] > b[ia + 1]) {
          const std::size_t layer = b[ia + 1];
          const double lw = w[layer];
          const double lm = mem.empty() ? 0.0 : mem[layer];
          const bool closer = std::abs(owed + lw) < -owed - 1e-15;
          const bool mem_ok = req.mem_capacity <= 0.0 ||
                              mems[ia] + lm <= req.mem_capacity;
          if (closer && mem_ok) {
            ++b[ia + 1];
            loads[ia] += lw;
            loads[ia + 1] -= lw;
            norm[ia] = loads[ia] / cap[ia];
            norm[ia + 1] = loads[ia + 1] / cap[ia + 1];
            mems[ia] += lm;
            mems[ia + 1] -= lm;
            edge_flow[ia] += lw;
            ++moves;
            progressed = true;
          }
        }
      }
    }
    return moves;
  };

  std::vector<std::size_t> best_b = b;
  double best_bottleneck = *std::max_element(norm.begin(), norm.end());
  double best_phi = res.phi_history.front();
  const auto consider_best = [&] {
    const double bn = *std::max_element(norm.begin(), norm.end());
    const double phi = DiffusionBalancer::potential(norm);
    if (bn < best_bottleneck - 1e-15 ||
        (bn <= best_bottleneck + 1e-15 && phi < best_phi)) {
      best_b = b;
      best_bottleneck = bn;
      best_phi = phi;
    }
  };

  int stagnant = 0;
  for (int r = 0; r < max_rounds; ++r) {
    std::vector<double> next = virt;
    for (int a = 0; a + 1 < S; ++a) {
      const auto ia = static_cast<std::size_t>(a);
      const double c_edge = std::min(cap[ia], cap[ia + 1]);
      const double f = kAlpha * c_edge * (virt[ia] - virt[ia + 1]);
      next[ia] -= f / cap[ia];
      next[ia + 1] += f / cap[ia + 1];
      edge_flow[ia] += f;
    }
    virt = std::move(next);

    const int moved = realize_flows();
    res.layer_moves += moved;
    ++res.rounds;
    consider_best();
    res.phi_history.push_back(std::min(res.phi_history.back(),
                                       DiffusionBalancer::potential(norm)));
    if (res.phi_history.back() <= gamma) {
      res.converged = true;
      break;
    }
    stagnant = (moved == 0) ? stagnant + 1 : 0;
    if (stagnant > 2 * S + 4) break;
  }

  res.map = pipeline::StageMap::from_boundaries(std::move(best_b));
  if (!res.converged) {
    const double max_w = *std::max_element(w.begin(), w.end()) /
                         *std::min_element(cap.begin(), cap.end());
    res.converged = res.phi_history.back() <=
                    gamma + max_w * static_cast<double>(S) *
                                static_cast<double>(S);
  }
  return res;
}

}  // namespace dynmo::testing
