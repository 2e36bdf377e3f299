#include "util/rng.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace wlgen::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_label(std::string_view label) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : label) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t id) {
  std::uint64_t state = root ^ (id * 0x9e3779b97f4a7c15ULL);
  std::uint64_t a = splitmix64(state);
  std::uint64_t b = splitmix64(state);
  return a ^ (b << 1);
}

}  // namespace

RngStream::RngStream(std::uint64_t root_seed, std::uint64_t stream_id)
    : root_seed_(root_seed),
      stream_id_(stream_id),
      engine_(derive_seed(root_seed, stream_id)) {}

RngStream::RngStream(std::uint64_t root_seed, std::string_view label)
    : RngStream(root_seed, hash_label(label)) {}

void RngStream::refill_block() {
  // One tight pass over the engine: 53-bit mantissa scaling, the standard
  // (x >> 11) * 2^-53 mapping, gives uniforms in [0, 1 - 2^-53].
  for (double& u : block_) {
    u = static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  block_pos_ = 0;
  ++refills_;
}

double RngStream::uniform(double lo, double hi) {
  if (hi < lo) throw std::invalid_argument("RngStream::uniform: hi < lo");
  double v = lo + (hi - lo) * uniform01();
  // Scaling can round up to hi when hi - lo is large; keep the half-open
  // contract.
  if (v >= hi && hi > lo) v = std::nextafter(hi, lo);
  return v;
}

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) throw std::invalid_argument("RngStream::uniform_int: hi < lo");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double RngStream::exponential(double mean) {
  if (mean <= 0.0) throw std::invalid_argument("RngStream::exponential: mean must be > 0");
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double RngStream::gamma(double alpha, double theta) {
  if (alpha <= 0.0 || theta <= 0.0) {
    throw std::invalid_argument("RngStream::gamma: alpha and theta must be > 0");
  }
  return std::gamma_distribution<double>(alpha, theta)(engine_);
}

double RngStream::normal(double mean, double stddev) {
  if (stddev < 0.0) throw std::invalid_argument("RngStream::normal: stddev must be >= 0");
  if (stddev == 0.0) return mean;
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

bool RngStream::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::size_t RngStream::categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("RngStream::categorical: negative weight");
    total += w;
  }
  if (weights.empty() || total <= 0.0) {
    throw std::invalid_argument("RngStream::categorical: weights must contain positive mass");
  }
  double u = uniform01() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return weights.size() - 1;
}

RngStream RngStream::fork(std::string_view label) const {
  return RngStream(root_seed_, stream_id_ ^ (hash_label(label) * 0x2545f4914f6cdd1dULL));
}

}  // namespace wlgen::util
