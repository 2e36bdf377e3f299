#include "core/ext.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wlgen::core {

const char* to_string(AccessPattern pattern) {
  switch (pattern) {
    case AccessPattern::sequential: return "sequential";
    case AccessPattern::uniform_random: return "uniform_random";
    case AccessPattern::zipf_block: return "zipf_block";
  }
  return "?";
}

std::uint64_t choose_offset(AccessPattern pattern, std::uint64_t file_size,
                            std::uint64_t access_size, util::RngStream& rng) {
  if (file_size == 0) return 0;
  const std::uint64_t max_start = access_size >= file_size ? 0 : file_size - access_size;
  switch (pattern) {
    case AccessPattern::sequential:
      throw std::logic_error("choose_offset: sequential offsets come from the descriptor");
    case AccessPattern::uniform_random:
      return static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(max_start)));
    case AccessPattern::zipf_block: {
      // Log-uniform block choice: P(block <= b) ~ log(b)/log(N), strongly
      // favouring the head of the file, a standard stand-in for Zipf access
      // frequency over indexed records.
      const double n = static_cast<double>(max_start + 1);
      const double pick = std::exp(rng.uniform01() * std::log(n)) - 1.0;
      return std::min<std::uint64_t>(static_cast<std::uint64_t>(pick), max_start);
    }
  }
  return 0;
}

std::size_t IndependentOpStream::choose(std::size_t count, std::size_t,
                                        util::RngStream& rng) const {
  if (count == 0) throw std::invalid_argument("OpStreamPolicy::choose: no items");
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
}

std::unique_ptr<OpStreamPolicy> IndependentOpStream::clone() const {
  return std::make_unique<IndependentOpStream>(*this);
}

MarkovOpStream::MarkovOpStream(double persistence) : persistence_(persistence) {
  if (persistence < 0.0 || persistence >= 1.0) {
    throw std::invalid_argument("MarkovOpStream: persistence must be in [0, 1)");
  }
}

std::size_t MarkovOpStream::choose(std::size_t count, std::size_t previous,
                                   util::RngStream& rng) const {
  if (count == 0) throw std::invalid_argument("OpStreamPolicy::choose: no items");
  if (previous != kNone && previous < count && rng.bernoulli(persistence_)) return previous;
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
}

std::string MarkovOpStream::name() const {
  return "markov(p=" + std::to_string(persistence_) + ")";
}

std::unique_ptr<OpStreamPolicy> MarkovOpStream::clone() const {
  return std::make_unique<MarkovOpStream>(*this);
}

}  // namespace wlgen::core
