#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace wlgen::fs {

/// errno-style outcome of a file-system operation.  Failures here are
/// *expected domain results* (a user may legitimately race an unlink), so per
/// the interface guidelines they travel in return values, not exceptions;
/// exceptions are reserved for caller contract violations.
enum class FsStatus {
  ok,
  not_found,           ///< ENOENT
  already_exists,      ///< EEXIST
  not_a_directory,     ///< ENOTDIR
  is_a_directory,      ///< EISDIR
  bad_descriptor,      ///< EBADF
  invalid_argument,    ///< EINVAL
  name_too_long,       ///< ENAMETOOLONG
  too_many_open_files, ///< EMFILE
  not_permitted,       ///< EPERM (e.g. writing a read-only open)
};

/// Human-readable status name ("ok", "not_found", ...).
const char* to_string(FsStatus status);

/// Expected-style result: either a value or an FsStatus error.
/// Accessing value() on an error throws std::logic_error (programmer error).
template <typename T>
class Result {
 public:
  Result(T value) : state_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(FsStatus error) : state_(error) {       // NOLINT(google-explicit-constructor)
    if (error == FsStatus::ok) {
      throw std::logic_error("Result: FsStatus::ok is not an error; construct with a value");
    }
  }

  bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  FsStatus status() const { return ok() ? FsStatus::ok : std::get<FsStatus>(state_); }

  const T& value() const& {
    require_ok();
    return std::get<T>(state_);
  }
  T& value() & {
    require_ok();
    return std::get<T>(state_);
  }
  T&& value() && {
    require_ok();
    return std::get<T>(std::move(state_));
  }

  T value_or(T fallback) const {
    return ok() ? std::get<T>(state_) : std::move(fallback);
  }

 private:
  void require_ok() const {
    if (!ok()) {
      throw std::logic_error(std::string("Result::value on error: ") +
                             to_string(std::get<FsStatus>(state_)));
    }
  }

  std::variant<T, FsStatus> state_;
};

}  // namespace wlgen::fs
