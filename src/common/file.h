#ifndef TOPKDUP_COMMON_FILE_H_
#define TOPKDUP_COMMON_FILE_H_

#include <string>

#include "common/status.h"

namespace topkdup {

/// Reads a whole file. NotFound when it does not exist, IOError when it
/// cannot be opened or read.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace topkdup

#endif  // TOPKDUP_COMMON_FILE_H_
