// Property-based and failure-injection tests: randomised sweeps checking
// invariants rather than specific values.

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <set>

#include "core/analysis.h"
#include "core/fsc.h"
#include "core/presets.h"
#include "core/usim.h"
#include "fs/filesystem.h"
#include "fsmodel/lru_cache.h"
#include "fsmodel/nfs_model.h"
#include "util/rng.h"

namespace wlgen {
namespace {

// ---------------------------------------------------------------------------
// LRU cache fuzz: compare against a trivially correct reference.
// ---------------------------------------------------------------------------

class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool access(std::uint64_t key) {
    const auto it = std::find(order_.begin(), order_.end(), key);
    if (it == order_.end()) return false;
    order_.erase(it);
    order_.push_front(key);
    return true;
  }
  bool insert(std::uint64_t key) {
    const auto it = std::find(order_.begin(), order_.end(), key);
    if (it != order_.end()) order_.erase(it);
    order_.push_front(key);
    if (order_.size() <= capacity_) return false;
    order_.pop_back();
    return true;
  }
  void clear() { order_.clear(); }
  void erase(std::uint64_t key) {
    const auto it = std::find(order_.begin(), order_.end(), key);
    if (it != order_.end()) order_.erase(it);
  }
  bool contains(std::uint64_t key) const {
    return std::find(order_.begin(), order_.end(), key) != order_.end();
  }
  std::size_t size() const { return order_.size(); }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> order_;
};

class LruFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruFuzz, MatchesReferenceImplementation) {
  // Seeds 1-5 fill tiny caches over and over; seeds 6-10 fill caches of 256
  // to 4,096 entries, so the table grows and evicts at scale.
  const std::uint64_t seed = GetParam();
  const std::size_t capacity =
      seed <= 5 ? 1 + seed % 13 : std::size_t{1} << std::min<std::uint64_t>(seed + 2, 12);
  fsmodel::LruCache cache(capacity);
  ReferenceLru reference(capacity);
  util::RngStream rng(seed, "lru-fuzz");
  const auto max_key = static_cast<std::int64_t>(2 * capacity + 25);
  const int steps = 4000 + 12 * static_cast<int>(capacity);
  std::size_t evictions = 0;
  for (int step = 0; step < steps; ++step) {
    // Mostly keys from twice the capacity's range, sometimes any 64-bit id;
    // inserts outnumber erases, so every cache fills and evicts.
    const std::uint64_t key = rng.uniform_int(0, 15) == 0
                                  ? rng.engine()()
                                  : static_cast<std::uint64_t>(rng.uniform_int(0, max_key));
    switch (rng.uniform_int(0, 7)) {
      case 0:
      case 1:
        EXPECT_EQ(cache.access(key), reference.access(key)) << "step " << step;
        break;
      case 2:
      case 3:
      case 4: {
        const bool evicted = cache.insert(key);
        EXPECT_EQ(evicted, reference.insert(key)) << "step " << step;
        evictions += evicted ? 1 : 0;
        break;
      }
      case 5:
        cache.erase(key);
        reference.erase(key);
        break;
      default:
        EXPECT_EQ(cache.contains(key), reference.contains(key)) << "step " << step;
        break;
    }
    if (step == steps / 2) {  // a full cache starts over
      cache.clear();
      reference.clear();
    }
    ASSERT_EQ(cache.size(), reference.size()) << "step " << step;
    EXPECT_LE(cache.size(), capacity);
  }
  EXPECT_GT(evictions, 0u);  // the run filled the cache
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruFuzz, ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// File-system fuzz against a size-tracking reference model.
// ---------------------------------------------------------------------------

class FsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsFuzz, SizesMatchReferenceModel) {
  fs::SimulatedFileSystem fsys;
  std::map<std::string, std::uint64_t> reference_sizes;
  std::map<std::string, fs::Fd> open_fds;
  util::RngStream rng(GetParam(), "fs-fuzz");

  for (int step = 0; step < 3000; ++step) {
    const std::string path = "/f" + std::to_string(rng.uniform_int(0, 9));
    switch (rng.uniform_int(0, 5)) {
      case 0: {  // creat (truncates)
        if (open_fds.count(path)) break;  // keep one fd per path for simplicity
        const auto fd = fsys.creat(path);
        ASSERT_TRUE(fd.ok());
        open_fds[path] = fd.value();
        reference_sizes[path] = 0;
        break;
      }
      case 1: {  // write at a random offset
        const auto it = open_fds.find(path);
        if (it == open_fds.end()) break;
        const std::uint64_t offset = static_cast<std::uint64_t>(rng.uniform_int(0, 5000));
        const std::uint64_t count = static_cast<std::uint64_t>(rng.uniform_int(1, 2000));
        fsys.lseek(it->second, static_cast<std::int64_t>(offset), fs::Seek::set);
        ASSERT_TRUE(fsys.write(it->second, count).ok());
        reference_sizes[path] = std::max(reference_sizes[path], offset + count);
        break;
      }
      case 2: {  // read never changes size
        const auto it = open_fds.find(path);
        if (it == open_fds.end()) break;
        fsys.lseek(it->second, 0, fs::Seek::set);
        const auto got = fsys.read(it->second, 10000);
        // creat() descriptors are write-only; both outcomes are legal, but a
        // successful read must return exactly the file size.
        if (got.ok()) {
          EXPECT_EQ(got.value(), reference_sizes[path]);
        }
        break;
      }
      case 3: {  // close
        const auto it = open_fds.find(path);
        if (it == open_fds.end()) break;
        EXPECT_EQ(fsys.close(it->second), fs::FsStatus::ok);
        open_fds.erase(it);
        break;
      }
      case 4: {  // unlink (closing first keeps this reference model simple;
                 // unlink-while-open has its own dedicated test in fs_test)
        const auto it = open_fds.find(path);
        if (it != open_fds.end()) {
          fsys.close(it->second);
          open_fds.erase(it);
        }
        const bool existed = reference_sizes.count(path) != 0;
        const fs::FsStatus status = fsys.unlink(path);
        EXPECT_EQ(status == fs::FsStatus::ok, existed);
        if (existed) reference_sizes.erase(path);
        break;
      }
      default: {  // stat agrees with the reference
        const auto st = fsys.stat(path);
        const auto it = reference_sizes.find(path);
        EXPECT_EQ(st.ok(), it != reference_sizes.end());
        if (st.ok() && it != reference_sizes.end()) {
          EXPECT_EQ(st.value().size, it->second);
        }
        break;
      }
    }
  }
  // Closing every descriptor leaves each linked file at its reference size.
  for (const auto& [path, fd] : open_fds) fsys.close(fd);
  for (const auto& [path, size] : reference_sizes) {
    const auto st = fsys.stat(path);
    ASSERT_TRUE(st.ok()) << path;
    EXPECT_EQ(st.value().size, size) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsFuzz, ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// USIM under model parameter sweeps: structural invariants hold everywhere.
// ---------------------------------------------------------------------------

struct UsimSweepCase {
  std::string name;
  bool async_writes;
  std::size_t client_cache_blocks;
  std::uint64_t block_size;
};

class UsimSweep : public ::testing::TestWithParam<UsimSweepCase> {};

TEST_P(UsimSweep, InvariantsHoldAcrossModelConfigs) {
  const UsimSweepCase& param = GetParam();
  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsmodel::NfsParams params;
  params.async_writes = param.async_writes;
  params.client_cache_blocks = param.client_cache_blocks;
  params.block_size = param.block_size;
  fsmodel::NfsModel nfs(simulation, params);
  core::FscConfig fsc_config;
  fsc_config.num_users = 2;
  core::FileSystemCreator fsc(fsys, core::di86_file_profiles(), fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();
  core::UsimConfig config;
  config.num_users = 2;
  config.sessions_per_user = 3;
  core::UserSimulator usim(simulation, fsys, nfs, manifest, core::default_population(), config);
  usim.run();

  EXPECT_EQ(usim.sessions_completed(), 6u);
  EXPECT_EQ(usim.log().size(), usim.total_ops());
  EXPECT_EQ(fsys.open_descriptor_count(), 0u);
  for (const auto& r : usim.log().records()) {
    EXPECT_GE(r.response_us, 0.0);
    EXPECT_LE(r.actual_bytes, r.requested_bytes + 1);
  }
  const core::UsageAnalyzer analyzer(usim.log());
  EXPECT_GT(analyzer.response_per_byte_us(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, UsimSweep,
    ::testing::Values(UsimSweepCase{"default", true, 384, 8192},
                      UsimSweepCase{"sync_writes", false, 384, 8192},
                      UsimSweepCase{"tiny_cache", true, 4, 8192},
                      UsimSweepCase{"small_blocks", true, 384, 1024},
                      UsimSweepCase{"big_blocks_sync", false, 64, 32768}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Failure injection.
// ---------------------------------------------------------------------------

TEST(FailureInjection, UsimSurvivesDescriptorStarvation) {
  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsmodel::NfsModel nfs(simulation);
  core::FscConfig fsc_config;
  core::FileSystemCreator fsc(fsys, core::di86_file_profiles(), fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();
  // Hold all but 6 descriptors: far below a session's working set.
  const std::size_t held = fs::SimulatedFileSystem::kMaxOpenFiles - 6;
  for (std::size_t i = 0; i < held; ++i) ASSERT_TRUE(fsys.open("/", fs::kRead).ok());
  core::UsimConfig config;
  config.sessions_per_user = 5;
  core::UserSimulator usim(simulation, fsys, nfs, manifest, core::default_population(), config);
  usim.run();
  EXPECT_EQ(usim.sessions_completed(), 5u);
  EXPECT_EQ(fsys.open_descriptor_count(), held);
}

}  // namespace
}  // namespace wlgen
