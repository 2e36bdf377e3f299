#include "fs/status.h"

namespace wlgen::fs {

const char* to_string(FsStatus status) {
  switch (status) {
    case FsStatus::ok: return "ok";
    case FsStatus::not_found: return "not_found";
    case FsStatus::already_exists: return "already_exists";
    case FsStatus::not_a_directory: return "not_a_directory";
    case FsStatus::is_a_directory: return "is_a_directory";
    case FsStatus::bad_descriptor: return "bad_descriptor";
    case FsStatus::invalid_argument: return "invalid_argument";
    case FsStatus::name_too_long: return "name_too_long";
    case FsStatus::too_many_open_files: return "too_many_open_files";
    case FsStatus::not_permitted: return "not_permitted";
  }
  return "unknown";
}

}  // namespace wlgen::fs
