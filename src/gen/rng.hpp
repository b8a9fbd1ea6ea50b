// Deterministic random source for the synthetic-workload experiments.
//
// A thin wrapper around std::mt19937_64 so generators and the simulator can
// share seeding conventions and experiments are reproducible bit-for-bit
// across runs (the paper's absolute percentages depend on RNG draws; ours are
// pinned by seed).
#pragma once

#include <cassert>
#include <cstdint>
#include <random>

namespace rbs {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    assert(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// True with probability p.
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Derives an independent child seed (for per-task-set streams).
  std::uint64_t fork_seed() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace rbs
