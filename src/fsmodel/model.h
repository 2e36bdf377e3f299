#pragma once

#include <cstdint>
#include <string>

#include "sim/stages.h"

namespace wlgen::fsmodel {

/// File I/O system calls at the level the paper models workload: "we chose
/// kernel level (or system call level in UNIX systems) as the appropriate
/// level at which to model the workload" (section 3.1.2).
enum class FsOpType {
  open,
  close,
  read,
  write,
  creat,
  unlink,
  stat,
  lseek,
  mkdir,
  readdir,
};

/// Number of FsOpType values — sizes per-op arrays (core::OpStats).
inline constexpr std::size_t kFsOpTypeCount = 10;

/// Name of an op type ("open", "read", ...).
const char* to_string(FsOpType type);

/// True for the calls that move file data (read/write); these are the calls
/// whose access size Table 5.3 characterises.
bool is_data_op(FsOpType type);

/// A system call as seen by a performance model.  The logical outcome (how
/// many bytes exist, whether the path resolves) is decided by
/// fs::SimulatedFileSystem; models only need the identifiers and sizes to
/// drive caches and to size transfers.
struct FsOp {
  FsOpType type = FsOpType::read;
  std::uint64_t file_id = 0;    ///< inode id; keys the caches
  std::uint64_t offset = 0;     ///< starting byte offset (read/write)
  std::uint64_t size = 0;       ///< bytes moved (read/write) or dir size hint
  std::uint64_t file_size = 0;  ///< current file size (whole-file transfers)
  std::uint32_t client = 0;     ///< issuing workstation (multi-client models)
};

/// A file-system performance model: compiles each system call into a chain
/// of delay/resource stages whose execution time is the call's response
/// time.  Implementations correspond to the systems the paper measures or
/// proposes comparing (section 5.3): SUN NFS, a local-disk UNIX file system,
/// and an Andrew-style whole-file-caching distributed file system.
///
/// Models mutate their cache state at plan time.  Two back-to-back plans of
/// the same block therefore see a warm cache even if the first fetch is
/// still in flight — a deliberate simplification (real clients block the
/// second reader on the in-flight fetch, with similar aggregate latency).
class FileSystemModel {
 public:
  virtual ~FileSystemModel() = default;

  /// Compiles one system call into a stage chain and updates model state.
  /// Applies the current service scale (fault-injection slowdown windows,
  /// src/traffic/faults.h) to every stage; at the default scale of 1 the
  /// chain is returned untouched, so fault-free runs stay bit-identical
  /// with pre-traffic builds.
  sim::StageChain plan(const FsOp& op) {
    sim::StageChain chain = plan_op(op);
    if (service_scale_ != 1.0) {
      for (sim::Stage& stage : chain) stage.duration *= service_scale_;
    }
    return chain;
  }

  /// Multiplier applied to every planned stage duration (1 = nominal).
  /// Fault slowdown windows toggle this from the DES timeline.
  void set_service_scale(double scale) { service_scale_ = scale; }
  double service_scale() const { return service_scale_; }

  /// Drops all cached state (client/server block, attribute and whole-file
  /// caches, dirty accounting, sequentiality tracking) — the cache-flush
  /// fault.  Statistics counters are kept.
  virtual void flush_caches() = 0;

  /// Model name for reports ("nfs", "local", "wholefile").
  virtual std::string name() const = 0;

  /// Multi-line human-readable statistics (cache ratios, utilisations).
  virtual std::string stats_summary() const = 0;

  /// Resets statistical counters (cache contents are kept).
  virtual void reset_stats() = 0;

 protected:
  /// Compiles one system call at nominal service times; the public plan()
  /// wrapper applies the slowdown scale.
  virtual sim::StageChain plan_op(const FsOp& op) = 0;

 private:
  double service_scale_ = 1.0;
};

}  // namespace wlgen::fsmodel
