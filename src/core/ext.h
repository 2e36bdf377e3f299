#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/rng.h"

namespace wlgen::core {

/// How byte offsets inside a file are chosen — implements the paper's
/// future-work item "the file types could include indexed files and
/// direct-access files" (section 6.2).  `sequential` is the paper's model
/// ("only sequential file access is simulated", section 4.2).
enum class AccessPattern {
  sequential,      ///< paper default: forward, wrapping at EOF
  uniform_random,  ///< direct-access: offsets uniform over the file
  zipf_block,      ///< indexed: log-uniform (Zipf-like) favouring low blocks
};

const char* to_string(AccessPattern pattern);

/// Chooses the starting offset of a non-sequential access on a file of
/// `file_size` bytes for an access of `access_size` bytes.
std::uint64_t choose_offset(AccessPattern pattern, std::uint64_t file_size,
                            std::uint64_t access_size, util::RngStream& rng);

/// Selection policy over a user's active work items — the independence
/// dimension of the model (section 3.1.4).  The paper "assume[s]
/// independence, subject to obvious logical constraints"; the Markov policy
/// implements the section 6.2 proposal so the assumption can be examined
/// (bench/ablation_markov).
class OpStreamPolicy {
 public:
  virtual ~OpStreamPolicy() = default;

  /// Picks an index in [0, count).  `previous` is the last picked index or
  /// kNone at a session start / after the previous item completed.
  virtual std::size_t choose(std::size_t count, std::size_t previous,
                             util::RngStream& rng) const = 0;

  virtual std::string name() const = 0;
  virtual std::unique_ptr<OpStreamPolicy> clone() const = 0;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
};

/// The paper's model: every operation picks a work item uniformly at random.
class IndependentOpStream final : public OpStreamPolicy {
 public:
  std::size_t choose(std::size_t count, std::size_t previous,
                     util::RngStream& rng) const override;
  std::string name() const override { return "independent"; }
  std::unique_ptr<OpStreamPolicy> clone() const override;
};

/// Order-1 Markov stream: with probability `persistence` the next operation
/// stays on the same work item, otherwise it jumps uniformly.
class MarkovOpStream final : public OpStreamPolicy {
 public:
  /// persistence in [0, 1).
  explicit MarkovOpStream(double persistence);

  std::size_t choose(std::size_t count, std::size_t previous,
                     util::RngStream& rng) const override;
  std::string name() const override;
  std::unique_ptr<OpStreamPolicy> clone() const override;

  double persistence() const { return persistence_; }

 private:
  double persistence_;
};

}  // namespace wlgen::core
