#include "core/usim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/log_sink.h"

namespace wlgen::core {

namespace {

/// Rounds a sampled continuous value to a count >= 1.
std::uint64_t at_least_one(double sampled) {
  const long long v = std::llround(sampled);
  return v < 1 ? 1 : static_cast<std::uint64_t>(v);
}

}  // namespace

/// One file's worth of planned work inside a session.
struct UserSimulator::WorkItem {
  enum class State { need_creat, need_stat, need_open, active, need_close, need_unlink, done };

  FileCategory category;
  std::string path;
  std::uint64_t inode = 0;
  std::uint64_t file_size = 0;     ///< logical size as the item progresses
  std::uint64_t bytes_target = 0;  ///< accesses-per-byte * file size
  std::uint64_t bytes_done = 0;
  std::uint64_t write_target = 0;  ///< bytes to materialise for NEW/TEMP
  std::uint64_t bytes_written = 0;
  fs::Fd fd = -1;
  State state = State::need_open;
};

/// An independent login-session driver; a user has `windows_per_user` slots
/// (one, in the paper's model).
struct UserSimulator::SessionSlot {
  std::size_t slot_index = 0;
  std::uint32_t session_ordinal = 0;  ///< global session number for this user
  std::size_t sessions_done = 0;      ///< sessions completed in this slot
  std::vector<WorkItem> items;
  std::size_t previous_item = OpStreamPolicy::kNone;
  std::size_t ops_this_session = 0;
};

struct UserSimulator::UserState {
  std::size_t index = 0;  ///< global user index (first_user + local offset)
  const UserType* type = nullptr;
  util::RngStream rng;
  std::vector<SessionSlot> slots;
  std::uint32_t next_session_ordinal = 0;
  std::uint64_t new_file_counter = 0;

  /// Open-system mode: this user's session arrival times (owned by
  /// UsimConfig::arrival_times_us) and the next unconsumed index.
  const std::vector<double>* arrivals = nullptr;
  std::size_t next_arrival = 0;

  UserState(std::uint64_t seed, std::size_t idx)
      : index(idx), rng(seed, "usim/user/" + std::to_string(idx)) {}
};

UserSimulator::UserSimulator(sim::Simulation& sim, fs::SimulatedFileSystem& fsys,
                             fsmodel::FileSystemModel& model, const CreatedFileSystem& manifest,
                             Population population, UsimConfig config)
    : sim_(sim),
      fsys_(fsys),
      model_(model),
      manifest_(manifest),
      population_(std::move(population)),
      config_(std::move(config)) {
  population_.validate_and_normalize();
  if (config_.num_users == 0) throw std::invalid_argument("UserSimulator: need >= 1 user");
  if (config_.sessions_per_user == 0) {
    throw std::invalid_argument("UserSimulator: need >= 1 session per user");
  }
  if (config_.windows_per_user == 0) {
    throw std::invalid_argument("UserSimulator: need >= 1 window per user");
  }
  if (config_.client_machines == 0) {
    throw std::invalid_argument("UserSimulator: need >= 1 client machine");
  }
  if (manifest_.user_count() < config_.first_user + config_.num_users) {
    throw std::invalid_argument(
        "UserSimulator: the created file system has fewer user directories than the "
        "configured user range");
  }
  if (config_.population_users == 0) config_.population_users = config_.num_users;
  if (config_.population_users < config_.first_user + config_.num_users) {
    throw std::invalid_argument(
        "UserSimulator: population_users must cover the configured user range");
  }
  if (config_.markov_persistence >= 0.0) {
    policy_ = std::make_unique<MarkovOpStream>(config_.markov_persistence);
  } else {
    policy_ = std::make_unique<IndependentOpStream>();
  }
  if (config_.arrival_times_us) {
    if (config_.windows_per_user != 1) {
      throw std::invalid_argument(
          "UserSimulator: open-loop arrivals require windows_per_user == 1");
    }
    if (config_.arrival_times_us->size() < config_.first_user + config_.num_users) {
      throw std::invalid_argument(
          "UserSimulator: arrival_times_us must cover the configured user range");
    }
  }

  for (std::size_t u = 0; u < config_.num_users; ++u) {
    const std::size_t global = config_.first_user + u;
    auto user = std::make_unique<UserState>(config_.seed, global);
    user->type = &population_.type_for_user(global, config_.population_users);
    user->slots.resize(config_.windows_per_user);
    for (std::size_t s = 0; s < config_.windows_per_user; ++s) user->slots[s].slot_index = s;
    if (config_.arrival_times_us) user->arrivals = &(*config_.arrival_times_us)[global];
    users_.push_back(std::move(user));
  }
}

UserSimulator::~UserSimulator() = default;

double UserSimulator::sample_think(UserState& user) {
  const double think = user.type->think_time_us->sample(user.rng);
  return think < 0.0 ? 0.0 : think;
}

std::string UserSimulator::new_file_path(UserState& user, UseMode use) {
  const char* stem = use == UseMode::temp ? "tmp" : "new";
  // Scatter new files across the user's directories so no single directory
  // balloons over hundreds of sessions.
  std::string dir = CreatedFileSystem::user_dir(user.index);
  const FileCategory user_dirs{FileType::directory, FileOwner::user, UseMode::read_only};
  const auto& pool = manifest_.pool(user_dirs, user.index);
  if (!pool.empty()) {
    const std::size_t pick = static_cast<std::size_t>(
        user.rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    dir = manifest_.files()[pool[pick]].path;
  }
  return dir + "/" + stem + "_" + std::to_string(user.new_file_counter++);
}

bool UserSimulator::plan_items(UserState& user, SessionSlot& slot) {
  slot.items.clear();
  slot.previous_item = OpStreamPolicy::kNone;
  slot.ops_this_session = 0;

  for (const auto& profile : user.type->usage) {
    if (!user.rng.bernoulli(profile.prob_accessing_category)) continue;
    const std::uint64_t files = at_least_one(profile.files_per_session->sample(user.rng));
    const auto& pool = manifest_.pool(profile.category, user.index);
    for (std::uint64_t f = 0; f < files; ++f) {
      WorkItem item;
      item.category = profile.category;
      const bool creates_file =
          profile.category.use == UseMode::new_file || profile.category.use == UseMode::temp;
      if (creates_file) {
        item.path = new_file_path(user, profile.category.use);
        item.write_target = at_least_one(profile.file_size->sample(user.rng));
        item.file_size = 0;
        item.bytes_target =
            at_least_one(profile.accesses_per_byte->sample(user.rng) *
                         static_cast<double>(item.write_target));
        item.state = WorkItem::State::need_creat;
      } else if (!pool.empty()) {
        const auto pick = static_cast<std::size_t>(
            user.rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
        const CreatedFile& file = manifest_.files()[pool[pick]];
        item.path = file.path;
        // Re-stat: earlier sessions may have grown/shrunk the file.
        const auto st = fsys_.stat(file.path);
        if (!st.ok()) continue;  // raced with nothing in this design, but be safe
        item.inode = st.value().inode;
        item.file_size = st.value().size;
        if (item.file_size == 0) continue;
        item.bytes_target =
            at_least_one(profile.accesses_per_byte->sample(user.rng) *
                         static_cast<double>(item.file_size));
        item.state = user.rng.bernoulli(config_.stat_before_open_prob)
                         ? WorkItem::State::need_stat
                         : WorkItem::State::need_open;
      } else {
        // No pre-created file to touch (tiny FSC configuration): materialise
        // one, as the paper's generator also "only creates those files which
        // may be accessed".
        item.path = new_file_path(user, UseMode::new_file);
        item.write_target = at_least_one(profile.file_size->sample(user.rng));
        item.file_size = 0;
        item.bytes_target =
            at_least_one(profile.accesses_per_byte->sample(user.rng) *
                         static_cast<double>(item.write_target));
        item.state = WorkItem::State::need_creat;
      }
      slot.items.push_back(std::move(item));
    }
  }
  return !slot.items.empty();
}

void UserSimulator::start_session(UserState& user, SessionSlot& slot) {
  slot.session_ordinal = user.next_session_ordinal++;
  // Degenerate draws can skip every category; such a login does nothing.
  if (!plan_items(user, slot)) {
    finish_session(user, slot);
    return;
  }
  schedule_next_op(user, slot);
}

void UserSimulator::schedule_next_op(UserState& user, SessionSlot& slot) {
  sim_.schedule(sample_think(user), [this, &user, &slot]() { issue_next_op(user, slot); });
}

void UserSimulator::finish_session(UserState& user, SessionSlot& slot) {
  ++sessions_completed_;
  ++slot.sessions_done;
  slot.items.clear();
  // Closed loop: a fixed per-slot session budget.  Open loop: the user's
  // arrival list is the budget (schedule_session_start stops at its end).
  if (user.arrivals == nullptr && slot.sessions_done >= config_.sessions_per_user) return;
  schedule_session_start(user, slot);
}

void UserSimulator::schedule_session_start(UserState& user, SessionSlot& slot) {
  if (user.arrivals != nullptr) {
    // Open-system mode: sessions start at their queued arrival time, or
    // immediately when the arrival is already in the past (per-user FIFO —
    // a user's sessions never overlap).
    if (user.next_arrival >= user.arrivals->size()) return;
    double start = std::max((*user.arrivals)[user.next_arrival++], sim_.now());
    start = traffic::churn_adjusted(config_.churn, config_.seed, user.index, start);
    sim_.schedule_at(start, [this, &user, &slot]() { start_session(user, slot); });
    return;
  }
  if (config_.churn.empty()) {
    sim_.schedule(kInterSessionGapUs, [this, &user, &slot]() { start_session(user, slot); });
    return;
  }
  const double start = traffic::churn_adjusted(config_.churn, config_.seed, user.index,
                                               sim_.now() + kInterSessionGapUs);
  sim_.schedule_at(start, [this, &user, &slot]() { start_session(user, slot); });
}

void UserSimulator::issue(UserState& user, SessionSlot& slot, WorkItem& item,
                          fsmodel::FsOpType op, std::uint64_t requested, std::uint64_t actual,
                          std::uint64_t offset) {
  ++total_ops_;
  ++slot.ops_this_session;

  fsmodel::FsOp model_op;
  model_op.type = op;
  model_op.file_id = item.inode;
  model_op.size = actual;
  model_op.file_size = item.file_size;
  model_op.client = static_cast<std::uint32_t>(user.index % config_.client_machines);
  model_op.offset = offset;

  const double issued_at = sim_.now();
  const std::uint32_t session = slot.session_ordinal;
  sim::execute_chain(
      sim_, model_.plan(model_op),
      // Word-sized captures first, then the small ones: the closure packs
      // into sim::ChainDone's 80 inline bytes.
      [this, &user, &slot, requested, actual, issued_at, inode = item.inode,
       fsize = item.file_size, op, session, category = item.category](double elapsed) {
        if (config_.collect_log || config_.on_record || config_.sink != nullptr) {
          OpRecord record;
          record.issue_time_us = issued_at;
          record.response_us = elapsed;
          record.user = static_cast<std::uint32_t>(user.index);
          record.session = session;
          record.op = op;
          record.requested_bytes = requested;
          record.actual_bytes = actual;
          record.file_id = inode;
          record.file_size = fsize;
          record.category = category;
          if (config_.on_record) config_.on_record(record);
          if (config_.sink != nullptr) {
            config_.sink->append(record);
          } else if (config_.collect_log) {
            log_.append(record);
          }
        }
        // Completion continues the session: pick the next operation after a
        // think time (already folded into schedule_next_op's delay).
        bool all_done = true;
        for (const auto& it : slot.items) {
          if (it.state != WorkItem::State::done) {
            all_done = false;
            break;
          }
        }
        if (all_done || slot.ops_this_session >= kMaxOpsPerSession) {
          // Emergency close of anything still open when the op budget blew.
          for (auto& it : slot.items) {
            if (it.fd >= 0) {
              fsys_.close(it.fd);
              it.fd = -1;
            }
          }
          finish_session(user, slot);
        } else {
          schedule_next_op(user, slot);
        }
      });
}

void UserSimulator::issue_next_op(UserState& user, SessionSlot& slot) {
  // Collect indices of unfinished items; map previous into that subset for
  // the Markov policy.
  std::vector<std::size_t> active;
  active.reserve(slot.items.size());
  std::size_t previous_active = OpStreamPolicy::kNone;
  for (std::size_t i = 0; i < slot.items.size(); ++i) {
    if (slot.items[i].state == WorkItem::State::done) continue;
    if (i == slot.previous_item) previous_active = active.size();
    active.push_back(i);
  }
  if (active.empty()) {
    finish_session(user, slot);
    return;
  }

  const std::size_t pick = active[policy_->choose(active.size(), previous_active, user.rng)];
  WorkItem& item = slot.items[pick];
  slot.previous_item = pick;

  switch (item.state) {
    case WorkItem::State::need_creat: {
      // creat(2) semantics give a write-only descriptor; the generator later
      // re-reads what it wrote (accesses-per-byte > 1), so it creates with
      // O_RDWR|O_CREAT|O_TRUNC the way real programs that reread do.
      const auto fd = fsys_.open(item.path, fs::kRead | fs::kWrite | fs::kCreate | fs::kTruncate);
      if (!fd.ok()) {
        item.state = WorkItem::State::done;  // cannot create (e.g. no space)
        issue_next_op(user, slot);
        return;
      }
      item.fd = fd.value();
      item.inode = fsys_.fstat(item.fd).value().inode;
      item.file_size = 0;
      item.state = WorkItem::State::active;
      issue(user, slot, item, fsmodel::FsOpType::creat, 0, 0);
      return;
    }
    case WorkItem::State::need_stat: {
      item.state = WorkItem::State::need_open;
      issue(user, slot, item, fsmodel::FsOpType::stat, 0, 0);
      return;
    }
    case WorkItem::State::need_open: {
      unsigned flags = fs::kRead;
      if (item.category.use == UseMode::read_write) flags |= fs::kWrite;
      const auto fd = fsys_.open(item.path, flags);
      if (!fd.ok()) {
        item.state = WorkItem::State::done;
        issue_next_op(user, slot);
        return;
      }
      item.fd = fd.value();
      item.state = WorkItem::State::active;
      issue(user, slot, item, fsmodel::FsOpType::open, 0, 0);
      return;
    }
    case WorkItem::State::active:
      break;  // handled below
    case WorkItem::State::need_close: {
      fsys_.close(item.fd);
      item.fd = -1;
      item.state = item.category.use == UseMode::temp ? WorkItem::State::need_unlink
                                                      : WorkItem::State::done;
      issue(user, slot, item, fsmodel::FsOpType::close, 0, 0);
      return;
    }
    case WorkItem::State::need_unlink: {
      fsys_.unlink(item.path);
      item.state = WorkItem::State::done;
      issue(user, slot, item, fsmodel::FsOpType::unlink, 0, 0);
      return;
    }
    case WorkItem::State::done:
      throw std::logic_error("UserSimulator: picked a done item");
  }

  // --- data operation on an active item -------------------------------------
  if (item.bytes_done >= item.bytes_target) {
    item.state = WorkItem::State::need_close;
    issue_next_op(user, slot);
    return;
  }

  const std::uint64_t chunk = at_least_one(user.type->access_size_bytes->sample(user.rng));

  // Phase 1 for NEW/TEMP items: materialise the file with extending writes.
  if (item.bytes_written < item.write_target) {
    const std::uint64_t remaining = item.write_target - item.bytes_written;
    const std::uint64_t size = std::min(chunk, remaining);
    const std::uint64_t offset = fsys_.tell(item.fd).value();
    const auto wrote = fsys_.write(item.fd, size);
    const std::uint64_t actual = wrote.ok() ? wrote.value() : 0;
    item.bytes_written += actual;
    item.bytes_done += actual;
    item.file_size = std::max(item.file_size, fsys_.fstat(item.fd).value().size);
    if (!wrote.ok()) item.write_target = item.bytes_written;  // a failed write stops the file growing
    issue(user, slot, item, fsmodel::FsOpType::write, size, actual, offset);
    return;
  }

  // Phase 2: reads (and RD-WRT in-place writes) within [0, file_size).
  // Refresh the size first: a directory item grows as the session creates
  // files in it, and RD-WRT files are shared across users.
  const auto st = fsys_.fstat(item.fd);
  if (st.ok()) item.file_size = st.value().size;
  if (item.file_size == 0) {
    item.state = WorkItem::State::need_close;
    issue_next_op(user, slot);
    return;
  }

  const bool is_write = item.category.use == UseMode::read_write &&
                        !user.rng.bernoulli(kRdwrReadFraction);

  if (config_.pattern != AccessPattern::sequential) {
    // Direct-access extension: silently position the descriptor; the data op
    // carries the offset to the model.
    const std::uint64_t offset =
        choose_offset(config_.pattern, item.file_size, chunk, user.rng);
    fsys_.lseek(item.fd, static_cast<std::int64_t>(offset), fs::Seek::set);
  }

  const std::uint64_t position = fsys_.tell(item.fd).value();
  if (position >= item.file_size) {
    // Sequential wrap: accesses-per-byte > 1 re-reads the file from the top.
    // The rewind is a real, logged lseek system call.
    fsys_.lseek(item.fd, 0, fs::Seek::set);
    issue(user, slot, item, fsmodel::FsOpType::lseek, 0, 0);
    return;
  }

  if (is_write) {
    // In-place update: never extends the file (sequential wrap keeps RD-WRT
    // files from growing without bound across sessions).
    const std::uint64_t size = std::min<std::uint64_t>(chunk, item.file_size - position);
    const auto wrote = fsys_.write(item.fd, size);
    const std::uint64_t actual = wrote.ok() ? wrote.value() : 0;
    item.bytes_done += actual;
    if (!wrote.ok() || actual == 0) item.state = WorkItem::State::need_close;  // cannot progress
    issue(user, slot, item, fsmodel::FsOpType::write, size, actual, position);
    return;
  }

  const auto got = fsys_.read(item.fd, chunk);
  const std::uint64_t actual = got.ok() ? got.value() : 0;
  item.bytes_done += actual;
  if (!got.ok() || actual == 0) item.state = WorkItem::State::need_close;  // cannot progress
  issue(user, slot, item, fsmodel::FsOpType::read, chunk, actual, position);
}

void UserSimulator::run() {
  if (ran_) throw std::logic_error("UserSimulator::run: may only run once");
  ran_ = true;
  for (auto& user : users_) {
    for (auto& slot : user->slots) {
      // Closed loop staggers logins by a sampled gap so users do not
      // lockstep; open loop starts at the user's first queued arrival.
      schedule_session_start(*user, slot);
    }
  }
  sim_.run();
}

std::uint64_t UserSimulator::rng_draws() const {
  std::uint64_t total = 0;
  for (const auto& user : users_) total += user->rng.uniform_draws();
  return total;
}

}  // namespace wlgen::core
