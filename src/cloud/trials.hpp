#pragma once
// Multi-trial aggregation, written once for every scenario simulator
// (simulate_cluster, simulate_multiregion): one seeded simulation is a
// single sample path, so experiments fold many independently reseeded
// trials into one result.

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace arch21::cloud {

/// Aggregate `trials` independent runs of `simulate` (trial i runs `cfg`
/// reseeded with Rng(cfg.seed, i).next()).  Trials run on `pool`
/// (ThreadPool::global() when null) and merge in trial order via
/// Result::merge(), so the result is bit-identical for any pool size.
/// Throws std::invalid_argument on an invalid `cfg` or zero trials.
template <class Result, class Config>
Result run_trials(const Config& cfg, unsigned trials, ThreadPool* pool,
                  Result (*simulate)(const Config&)) {
  cfg.validate();
  if (trials == 0) {
    throw std::invalid_argument("run_trials: trials must be > 0");
  }
  ThreadPool& tp = pool ? *pool : ThreadPool::global();
  Result identity;
  identity.trials = 0;
  return tp.parallel_reduce<Result>(
      trials, std::move(identity), /*grain=*/1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        Result acc;
        acc.trials = 0;
        for (std::size_t i = begin; i < end; ++i) {
          Config c = cfg;
          c.seed = Rng(cfg.seed, i).next();
          Result one = simulate(c);
          if (acc.trials == 0) {
            acc = std::move(one);
          } else {
            acc.merge(one);
          }
        }
        return acc;
      },
      [](Result acc, Result chunk) {
        if (acc.trials == 0) return chunk;
        if (chunk.trials == 0) return acc;
        acc.merge(chunk);
        return acc;
      });
}

/// Mean answered queries per second per trial over the goodput windows
/// [begin, end) of width `window_s`, where `count(i)` is window i's
/// answered count summed over `trials` runs (the caller decides what a
/// window past the recorded series counts as).  0 for an empty range.
template <class Count>
double windowed_mean_qps(std::size_t begin, std::size_t end, double window_s,
                         unsigned trials, const Count& count) {
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = begin; i < end; ++i, ++n) sum += count(i);
  const double per_win = window_s * static_cast<double>(std::max(trials, 1u));
  return n > 0 ? sum / (static_cast<double>(n) * per_win) : 0.0;
}

}  // namespace arch21::cloud
