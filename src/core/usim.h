#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/ext.h"
#include "core/fsc.h"
#include "core/usage_log.h"
#include "core/workload.h"
#include "fs/filesystem.h"
#include "fsmodel/model.h"
#include "sim/simulation.h"
#include "traffic/faults.h"

namespace wlgen::core {

class LogSink;  // core/log_sink.h

/// Read share of data operations on RD-WRT items (the paper does not
/// publish an op mix; 0.5 is the documented assumption — see DESIGN.md).
inline constexpr double kRdwrReadFraction = 0.5;

/// Gap between a logout and the next login in a closed-loop run, µs.
inline constexpr double kInterSessionGapUs = 1000.0;

/// Hard per-session op budget (guards against degenerate configurations).
inline constexpr std::size_t kMaxOpsPerSession = 200000;

/// Configuration of a User Simulator run.  Nothing here selects how draws
/// are made: each user characteristic is one Distribution::sample() from the
/// user's own stream, at the point where the simulator needs it.
struct UsimConfig {
  /// Simultaneous users on the machine — the x-axis of Figures 5.6–5.11.
  std::size_t num_users = 1;

  /// Global index of the first simulated user: this run drives users
  /// [first_user, first_user + num_users).  RNG streams, population type
  /// assignment and file-system directories are all keyed by the *global*
  /// index, so a range run reproduces exactly the per-user behaviour of a
  /// full run — the USIM side of the sharded runner's deterministic user
  /// partitioning (see DESIGN.md "Sharded runner").
  std::size_t first_user = 0;

  /// Total population size used for user-type apportionment (0 = num_users).
  /// Range runs set this to the full population so user k gets the same
  /// UserType regardless of how users are partitioned into shards.
  std::size_t population_users = 0;

  /// Login sessions each user performs (the paper uses 50 for the response
  /// experiments and 600 total for the characterisation run).
  std::size_t sessions_per_user = 50;

  /// Root seed; every user derives an independent stream from it.
  std::uint64_t seed = 42;

  /// Offset access pattern (paper: sequential).
  AccessPattern pattern = AccessPattern::sequential;

  /// Work-item selection: negative = the paper's independent stream;
  /// in [0,1) = Markov persistence (section 6.2 extension).
  double markov_persistence = -1.0;

  /// Probability of issuing a stat() before opening an existing file.
  double stat_before_open_prob = 0.0;

  /// Concurrent login sessions per user (section 6.2: "under a window
  /// system, a user may have several simultaneous logins"); 1 = the paper's
  /// single-session user model.
  std::size_t windows_per_user = 1;

  /// Client workstations users are spread over (round-robin by user index).
  /// 1 = the paper's single shared SUN 3/50; match the model's
  /// NfsParams::num_clients when running a multi-workstation topology.
  std::size_t client_machines = 1;

  /// When false, per-op records are not retained (big sweeps).
  bool collect_log = true;

  /// Streaming destination for completed-op records (non-owning; must
  /// outlive the run).  When set it REPLACES the internal in-memory log —
  /// records append here instead of log_ — and collect_log is ignored.
  /// The sharded runner points every shard's users at that shard's
  /// SpillSink, so it keeps no per-user log.
  LogSink* sink = nullptr;

  /// Observer invoked with every op record as it completes, independent of
  /// collect_log — the hook mergeable-statistics accumulators use so big
  /// sweeps can run log-free without losing their aggregates.
  std::function<void(const OpRecord&)> on_record;

  /// Open-system session arrivals (src/traffic/arrivals.h): element g holds
  /// GLOBAL user g's session start times in µs, ascending.  When set, the
  /// closed-loop schedule (initial stagger + kInterSessionGapUs) is replaced:
  /// user g's session k starts at max(arrival k, previous session end) —
  /// arrivals queue per user, sessions never overlap — and the user runs
  /// exactly arrival_times_us[g].size() sessions (sessions_per_user is
  /// ignored).  Requires windows_per_user == 1.  Indexing by global user
  /// keeps a sharded range run identical to the full run.
  std::shared_ptr<const std::vector<std::vector<double>>> arrival_times_us;

  /// User-population churn windows (src/traffic/faults.h): a deterministic
  /// per-window fraction of users (hash of seed/user/window, no RNG draws)
  /// has session starts inside the window postponed to its end.  Empty =
  /// the exact pre-traffic code path.
  std::vector<traffic::ChurnWindow> churn;
};

/// The paper's User Simulator (USIM): "simulates workload on a terminal or
/// workstation, i.e., a series of users logging in and using the computer"
/// (section 4.1.3).  Each simulated user repeatedly:
///
///   1. plans a login session — for each file category the user's type
///      touches (Table 5.2 probabilities), samples how many files and, per
///      file, how many bytes to access (accesses-per-byte × file size);
///   2. issues one file I/O system call at a time — creat/open first, then
///      sequential reads/writes in access-size chunks (lseek rewinds give
///      accesses-per-byte > 1), close, and unlink for TEMP files —
///      independently interleaved across the session's files;
///   3. sleeps a sampled think time between calls.
///
/// Calls execute logically against the SimulatedFileSystem (so EOF, unlink
/// and fd semantics are real) and temporally against the FileSystemModel
/// (so response times include queueing against the other users).
///
/// One UserSimulator drives one Simulation on one thread.  For populations
/// beyond what a single core can sweep, runner::ShardedRunner partitions the
/// user index space across worker threads via the first_user/num_users range
/// mode and merges the results deterministically — architecture and merge
/// contract are documented in DESIGN.md, "Sharded runner".
class UserSimulator {
 public:
  UserSimulator(sim::Simulation& sim, fs::SimulatedFileSystem& fsys,
                fsmodel::FileSystemModel& model, const CreatedFileSystem& manifest,
                Population population, UsimConfig config);
  ~UserSimulator();
  UserSimulator(const UserSimulator&) = delete;
  UserSimulator& operator=(const UserSimulator&) = delete;

  /// Schedules every user's first login and runs the simulation to
  /// completion.  May be called once.
  void run();

  /// The usage log (empty when collect_log is false).
  const UsageLog& log() const { return log_; }

  /// Moves the log out (the sharded runner's zero-copy handoff); log() is
  /// empty afterwards.
  UsageLog take_log() { return std::move(log_); }

  std::uint64_t total_ops() const { return total_ops_; }
  std::uint64_t sessions_completed() const { return sessions_completed_; }

  /// Total uniform01-path RNG draws across this run's user streams (the obs
  /// "rng.uniform_draws" metric; see util::RngStream::uniform_draws).
  std::uint64_t rng_draws() const;

  const UsimConfig& config() const { return config_; }

 private:
  struct WorkItem;
  struct SessionSlot;
  struct UserState;

  void start_session(UserState& user, SessionSlot& slot);
  void schedule_session_start(UserState& user, SessionSlot& slot);
  void schedule_next_op(UserState& user, SessionSlot& slot);
  void issue_next_op(UserState& user, SessionSlot& slot);
  void finish_session(UserState& user, SessionSlot& slot);
  bool plan_items(UserState& user, SessionSlot& slot);
  /// Hands one call to the model and logs it at completion; `offset` is a
  /// data op's descriptor offset before the call.
  void issue(UserState& user, SessionSlot& slot, WorkItem& item, fsmodel::FsOpType op,
             std::uint64_t requested, std::uint64_t actual, std::uint64_t offset = 0);
  double sample_think(UserState& user);
  std::string new_file_path(UserState& user, UseMode use);

  sim::Simulation& sim_;
  fs::SimulatedFileSystem& fsys_;
  fsmodel::FileSystemModel& model_;
  const CreatedFileSystem& manifest_;
  Population population_;
  UsimConfig config_;
  std::unique_ptr<OpStreamPolicy> policy_;
  std::vector<std::unique_ptr<UserState>> users_;
  UsageLog log_;
  std::uint64_t total_ops_ = 0;
  std::uint64_t sessions_completed_ = 0;
  bool ran_ = false;
};

}  // namespace wlgen::core
