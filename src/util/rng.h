#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

namespace wlgen::util {

/// Deterministic seeded random stream.
///
/// Every simulated entity (user, server, model) owns a private stream derived
/// from a root seed plus a stream identifier, so adding a user or reordering
/// events never perturbs another entity's draws.  Identical (seed, id) pairs
/// always reproduce identical sequences, which the test suite relies on.
///
/// uniform01() — the draw behind every distribution's inverse transform —
/// is served from a block of kBlock uniforms filled in one tight loop over
/// the mt19937_64, amortising the per-call dispatch of the engine in the
/// sampling hot loops (see DESIGN.md "Batched RNG").  The sequence is a pure
/// function of (seed, id) and the call history, exactly as before; methods
/// that draw from engine() directly interleave with the block refills at
/// deterministic points.
class RngStream {
 public:
  /// Uniforms buffered per engine dispatch (1 KiB per stream).
  static constexpr std::size_t kBlock = 128;

  /// Creates a stream from a root seed and a numeric stream id.
  RngStream(std::uint64_t root_seed, std::uint64_t stream_id);

  /// Creates a stream whose id is hashed from a label such as "user/3".
  RngStream(std::uint64_t root_seed, std::string_view label);

  /// Uniform double in [0, 1); 53-bit resolution, served from the block.
  double uniform01() {
    if (block_pos_ == block_.size()) refill_block();
    return block_[block_pos_++];
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential variate with the given mean (mean > 0).
  double exponential(double mean);

  /// Gamma variate with shape alpha and scale theta.
  double gamma(double alpha, double theta);

  /// Standard normal variate.
  double normal(double mean, double stddev);

  /// Bernoulli trial that succeeds with probability p.
  bool bernoulli(double p);

  /// Selects an index in [0, weights.size()) proportionally to weights.
  /// Weights need not be normalised; all must be >= 0 and not all zero.
  std::size_t categorical(const std::vector<double>& weights);

  /// uniform01() draws consumed so far (direct engine() draws are not
  /// counted).  Costs one counter increment per kBlock-draw refill —
  /// nothing on the draw path itself — which is what lets the obs metrics
  /// report RNG volume for free.
  std::uint64_t uniform_draws() const {
    return refills_ == 0 ? 0 : (refills_ - 1) * kBlock + block_pos_;
  }

  /// Derives a child stream; children of distinct labels are independent.
  /// The child starts with an empty block; the parent's buffer is untouched.
  RngStream fork(std::string_view label) const;

  /// Underlying engine, for std distributions that need one.  Direct engine
  /// draws bypass the uniform block (they do not consume buffered values),
  /// which keeps mixed call sequences deterministic.
  std::mt19937_64& engine() { return engine_; }

 private:
  void refill_block();

  std::uint64_t root_seed_;
  std::uint64_t stream_id_;
  std::mt19937_64 engine_;
  std::array<double, kBlock> block_;
  std::size_t block_pos_ = kBlock;  ///< == size: refill before next draw
  std::uint64_t refills_ = 0;       ///< blocks filled; see uniform_draws()
};

/// SplitMix64 step; used for seed derivation.  Exposed for tests.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stable 64-bit FNV-1a hash of a label.  Exposed for tests.
std::uint64_t hash_label(std::string_view label);

}  // namespace wlgen::util
