#include "serve/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/crc32.h"
#include "common/faultpoint.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace topkdup::serve {
namespace {

// File header: [u64 magic][u32 version][u32 crc32 over the first 12 bytes].
constexpr uint64_t kWalMagic = 0x31'4C'41'57'50'44'4B'54ull;  // "TKDPWAL1"
// Version 3: the log holds a stream's whole history from seq 0. A version 2
// log may be the tail left after a checkpoint trim, so it is refused rather
// than read as a history.
constexpr uint32_t kWalVersion = 3;
constexpr size_t kFileHeaderBytes = 16;

metrics::Counter& AppendCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("serve.wal.appends");
  return *c;
}
metrics::Counter& FsyncCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("serve.wal.fsyncs");
  return *c;
}
metrics::Counter& BytesCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("serve.wal.bytes");
  return *c;
}
metrics::Counter& TruncatedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("serve.wal.truncated_tail_bytes");
  return *c;
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string BuildFileHeader() {
  std::string h;
  h.reserve(kFileHeaderBytes);
  PutU64(&h, kWalMagic);
  PutU32(&h, kWalVersion);
  PutU32(&h, Crc32(reinterpret_cast<const uint8_t*>(h.data()), 12));
  return h;
}

// Appends one frame to `out`, its CRC over seq + epoch + payload.
void AppendFrame(std::string* out, uint64_t seq, uint64_t epoch,
                 std::string_view payload) {
  const size_t start = out->size();
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, 0);  // CRC, patched below once the covered bytes are in place.
  PutU64(out, seq);
  PutU64(out, epoch);
  out->append(payload);
  const uint32_t crc = Crc32(std::string_view(*out).substr(start + 8));
  for (int i = 0; i < 4; ++i) {
    (*out)[start + 4 + i] = static_cast<char>(crc >> (8 * i));
  }
}

// True when an intact frame — its length within `end`, its CRC matching —
// starts at some offset in [from, end). A torn final write leaves nothing
// intact after the frame it cut, so Open asks this of a frame whose length
// runs past EOF: a frame found here means that length field is damaged.
bool IntactFrameIn(const uint8_t* base, uint64_t from, uint64_t end) {
  constexpr uint64_t kHeader = WriteAheadLog::kFrameHeaderBytes;
  for (uint64_t q = from; q + kHeader <= end; ++q) {
    const uint64_t payload_len = GetU32(base + q);
    if (payload_len > end - q - kHeader) continue;
    if (Crc32(base + q + 8, 16 + payload_len) == GetU32(base + q + 4)) {
      return true;
    }
  }
  return false;
}

Status WriteFully(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wal write failed: ") +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SyncFd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    return Status::IOError("fsync failed for " + what + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

// fsyncs the directory containing `path` so a file created in it is durable.
Status SyncParentDir(const std::string& path) {
  std::string dir = ".";
  auto slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return Status::IOError("open dir for fsync failed: " + dir + ": " +
                           std::strerror(errno));
  }
  Status s = SyncFd(dfd, dir);
  ::close(dfd);
  return s;
}

}  // namespace

const char* WalFsyncPolicyName(WalFsyncPolicy policy) {
  switch (policy) {
    case WalFsyncPolicy::kNever:
      return "never";
    case WalFsyncPolicy::kIntervalMs:
      return "interval";
    case WalFsyncPolicy::kEveryN:
      return "every_n";
    case WalFsyncPolicy::kAlways:
      return "always";
  }
  return "unknown";
}

StatusOr<WalFsyncPolicy> ParseWalFsyncPolicy(std::string_view text) {
  if (text == "never") return WalFsyncPolicy::kNever;
  if (text == "interval") return WalFsyncPolicy::kIntervalMs;
  if (text == "every_n") return WalFsyncPolicy::kEveryN;
  if (text == "always") return WalFsyncPolicy::kAlways;
  return Status::InvalidArgument("unknown wal fsync policy: \"" +
                                 std::string(text) +
                                 "\" (want never|interval|every_n|always)");
}

WriteAheadLog::WriteAheadLog(std::string path, WalOptions options, int fd,
                             uint64_t end_offset)
    : path_(std::move(path)),
      options_(options),
      fd_(fd),
      end_offset_(end_offset),
      last_sync_ms_(NowMs()) {}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    // Best effort: a clean owner already called Sync(); this only covers
    // abandoned logs.
    ::fsync(fd_);
    ::close(fd_);
  }
}

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, const WalOptions& options, WalReplay* replay) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open wal " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Status::IOError("fstat failed for " + path + ": " +
                               std::strerror(errno));
    ::close(fd);
    return s;
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);

  auto fail = [&](Status s) -> StatusOr<std::unique_ptr<WriteAheadLog>> {
    ::close(fd);
    return s;
  };

  if (size == 0) {
    // Fresh log: stamp the file header and make its existence durable so a
    // crash right after creation cannot leave a headerless file behind.
    std::string header = BuildFileHeader();
    Status s = WriteFully(fd, header.data(), header.size());
    if (s.ok()) s = SyncFd(fd, path);
    if (s.ok()) s = SyncParentDir(path);
    if (!s.ok()) return fail(std::move(s));
    return std::unique_ptr<WriteAheadLog>(
        new WriteAheadLog(path, options, fd, kFileHeaderBytes));
  }

  // Existing log: read the whole file and scan frame by frame.
  std::string contents(size, '\0');
  uint64_t got = 0;
  while (got < size) {
    ssize_t n = ::pread(fd, contents.data() + got, size - got, got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail(Status::IOError("read wal " + path + ": " +
                                  std::strerror(errno)));
    }
    if (n == 0) break;  // Concurrent truncation; treat what we got as all.
    got += static_cast<uint64_t>(n);
  }
  contents.resize(got);
  const uint8_t* base = reinterpret_cast<const uint8_t*>(contents.data());

  if (contents.size() < kFileHeaderBytes) {
    // A crash before the header fsync completed. The file provably holds no
    // acknowledged record, so it is a torn tail in its entirety.
    uint64_t torn = contents.size();
    if (::ftruncate(fd, 0) != 0) {
      return fail(Status::IOError("truncate torn wal header " + path + ": " +
                                  std::strerror(errno)));
    }
    std::string header = BuildFileHeader();
    Status s = WriteFully(fd, header.data(), header.size());
    if (s.ok()) s = SyncFd(fd, path);
    if (!s.ok()) return fail(std::move(s));
    if (replay != nullptr) replay->truncated_tail_bytes += torn;
    TruncatedCounter().Add(torn);
    return std::unique_ptr<WriteAheadLog>(
        new WriteAheadLog(path, options, fd, kFileHeaderBytes));
  }
  if (GetU64(base) != kWalMagic) {
    return fail(Status::InvalidArgument("wal " + path +
                                        ": bad magic (not a WAL file)"));
  }
  uint32_t version = GetU32(base + 8);
  if (version != kWalVersion) {
    return fail(Status::InvalidArgument(
        "wal " + path + ": unsupported version " + std::to_string(version)));
  }
  if (GetU32(base + 12) != Crc32(base, 12)) {
    return fail(
        Status::InvalidArgument("wal " + path + ": file header CRC mismatch"));
  }

  // Frame scan. `pos` always points at the start of a (claimed) frame.
  uint64_t pos = kFileHeaderBytes;
  uint64_t valid_end = pos;
  while (pos < contents.size()) {
    uint64_t remaining = contents.size() - pos;
    if (remaining < kFrameHeaderBytes) break;  // Torn frame header.
    uint32_t payload_len = GetU32(base + pos);
    uint32_t crc = GetU32(base + pos + 4);
    uint64_t seq = GetU64(base + pos + 8);
    uint64_t epoch = GetU64(base + pos + 16);
    uint64_t frame_bytes = kFrameHeaderBytes + payload_len;
    if (frame_bytes > remaining) {
      // Runs past EOF: a torn final write, unless intact frames follow —
      // then the length field is damaged, and truncating here would drop
      // every acknowledged frame after it.
      if (!IntactFrameIn(base, pos + kFrameHeaderBytes, contents.size())) {
        break;
      }
      return fail(Status::InvalidArgument(
          "wal " + path + ": frame at offset " + std::to_string(pos) +
          " claims " + std::to_string(payload_len) +
          " payload bytes, past the end of the log, yet intact frames "
          "follow it (mid-file corruption)"));
    }
    // CRC covers the seq + epoch fields plus the payload, so a frame whose
    // length field was itself corrupted still fails verification.
    uint32_t actual = Crc32(base + pos + 8, 16 + payload_len);
    if (actual != crc) {
      if (pos + frame_bytes == contents.size()) break;  // Torn last frame.
      return fail(Status::InvalidArgument(
          "wal " + path + ": CRC mismatch in frame at offset " +
          std::to_string(pos) + " with " +
          std::to_string(contents.size() - pos - frame_bytes) +
          " bytes after it (mid-file corruption)"));
    }
    if (replay != nullptr) {
      replay->records.emplace_back(
          seq, contents.substr(pos + kFrameHeaderBytes, payload_len));
      replay->max_epoch = std::max(replay->max_epoch, epoch);
    }
    pos += frame_bytes;
    valid_end = pos;
  }

  uint64_t torn = contents.size() - valid_end;
  if (torn > 0) {
    if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
      return fail(Status::IOError("truncate torn wal tail " + path + ": " +
                                  std::strerror(errno)));
    }
    Status s = SyncFd(fd, path);
    if (!s.ok()) return fail(std::move(s));
    if (replay != nullptr) replay->truncated_tail_bytes += torn;
    TruncatedCounter().Add(torn);
  }
  if (::lseek(fd, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
    return fail(Status::IOError("seek wal " + path + ": " +
                                std::strerror(errno)));
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(path, options, fd, valid_end));
}

Status WriteAheadLog::Append(uint64_t first_seq,
                             const std::vector<std::string>& payloads,
                             uint64_t epoch) {
  if (poisoned_) {
    return Status::IOError("wal " + path_ +
                           " is poisoned after a failed rollback");
  }
  TOPKDUP_FAULT_RETURN_IF("wal.append");
  size_t bytes = 0;
  for (const std::string& payload : payloads) {
    if (payload.size() > 0xFFFFFFFFull) {
      return Status::InvalidArgument("wal payload too large");
    }
    bytes += kFrameHeaderBytes + payload.size();
  }
  std::string frames;
  frames.reserve(bytes);
  for (size_t i = 0; i < payloads.size(); ++i) {
    AppendFrame(&frames, first_seq + i, epoch, payloads[i]);
  }

  const uint64_t pre = end_offset_;
  Status s = WriteFully(fd_, frames.data(), frames.size());
  if (!s.ok()) {
    Status rb = RollbackTo(pre);
    return rb.ok() ? s : rb;
  }
  end_offset_ += frames.size();
  appends_since_sync_ += payloads.size();

  s = MaybeSync();
  if (!s.ok()) {
    // The run may not be on stable storage; withdraw it so the caller's
    // retry cannot create a duplicate.
    appends_since_sync_ -= payloads.size();
    Status rb = RollbackTo(pre);
    return rb.ok() ? s : rb;
  }
  AppendCounter().Add(payloads.size());
  BytesCounter().Add(frames.size());
  return Status::OK();
}

Status WriteAheadLog::MaybeSync() {
  bool want = false;
  switch (options_.fsync) {
    case WalFsyncPolicy::kNever:
      break;
    case WalFsyncPolicy::kAlways:
      want = true;
      break;
    case WalFsyncPolicy::kEveryN:
      if (options_.every_n > 0 && appends_since_sync_ >= options_.every_n) {
        want = true;
      }
      break;
    case WalFsyncPolicy::kIntervalMs:
      if (NowMs() - last_sync_ms_ >= options_.interval_ms) want = true;
      break;
  }
  return want ? SyncNow() : Status::OK();
}

Status WriteAheadLog::Sync() {
  if (poisoned_) {
    return Status::IOError("wal " + path_ +
                           " is poisoned after a failed rollback");
  }
  if (appends_since_sync_ == 0) return Status::OK();
  return SyncNow();
}

Status WriteAheadLog::SyncNow() {
  TOPKDUP_FAULT_RETURN_IF("wal.fsync");
  Status s = SyncFd(fd_, path_);
  if (!s.ok()) return s;
  FsyncCounter().Add(1);
  appends_since_sync_ = 0;
  last_sync_ms_ = NowMs();
  return Status::OK();
}

Status WriteAheadLog::TruncateTo(uint64_t offset) {
  if (poisoned_) {
    return Status::IOError("wal " + path_ +
                           " is poisoned after a failed rollback");
  }
  if (offset > end_offset_) {
    return Status::InvalidArgument("wal TruncateTo past end of log");
  }
  return RollbackTo(offset);
}

Status WriteAheadLog::RollbackTo(uint64_t offset) {
  if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(offset), SEEK_SET) < 0) {
    poisoned_ = true;
    return Status::IOError("wal rollback failed for " + path_ + ": " +
                           std::strerror(errno) +
                           " (log poisoned; dataset needs recovery)");
  }
  end_offset_ = offset;
  return Status::OK();
}

Status EnsureDirectory(const std::string& dir) {
  if (dir.empty()) return Status::InvalidArgument("empty directory path");
  std::string accum;
  size_t start = 0;
  if (dir[0] == '/') accum = "/";
  while (start < dir.size()) {
    size_t slash = dir.find('/', start);
    if (slash == std::string::npos) slash = dir.size();
    if (slash > start) {
      if (!accum.empty() && accum.back() != '/') accum.push_back('/');
      accum.append(dir, start, slash - start);
      if (::mkdir(accum.c_str(), 0755) != 0 && errno != EEXIST) {
        return Status::IOError("mkdir " + accum + ": " + std::strerror(errno));
      }
    }
    start = slash + 1;
  }
  return Status::OK();
}

}  // namespace topkdup::serve
