#include "serve/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <dirent.h>

#include "common/crc32.h"
#include "common/faultpoint.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace topkdup::serve {
namespace {

// File header: [u64 magic][u32 version][u32 crc32 over the first 12 bytes].
constexpr uint64_t kWalMagic = 0x31'4C'41'57'50'44'4B'54ull;  // "TKDPWAL1"
constexpr uint32_t kWalVersion = 2;
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

// fsyncs the directory containing `path` so a rename/create in it is durable.
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
    // Best effort: a clean owner already called Sync()/Reset(); this only
    // covers abandoned logs.
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
    if (frame_bytes > remaining) break;  // Frame extends past EOF: torn.
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

Status WriteAheadLog::Append(uint64_t seq, std::string_view payload,
                             uint64_t epoch) {
  if (poisoned_) {
    return Status::IOError("wal " + path_ +
                           " is poisoned after a failed rollback");
  }
  TOPKDUP_FAULT_RETURN_IF("wal.append");
  if (payload.size() > 0xFFFFFFFFull) {
    return Status::InvalidArgument("wal payload too large");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  std::string body;
  body.reserve(16 + payload.size());
  PutU64(&body, seq);
  PutU64(&body, epoch);
  body.append(payload);
  PutU32(&frame, Crc32(body));
  frame.append(body);

  uint64_t pre = end_offset_;
  Status s = WriteFully(fd_, frame.data(), frame.size());
  if (!s.ok()) {
    Status rb = RollbackTo(pre);
    return rb.ok() ? s : rb;
  }
  end_offset_ += frame.size();
  appended_bytes_ += frame.size();
  ++appends_since_sync_;

  s = MaybeSync(/*force=*/options_.fsync == WalFsyncPolicy::kAlways);
  if (!s.ok()) {
    // The frame may not be on stable storage; withdraw it so the caller's
    // retry cannot create a duplicate.
    appended_bytes_ -= frame.size();
    --appends_since_sync_;
    Status rb = RollbackTo(pre);
    return rb.ok() ? s : rb;
  }
  AppendCounter().Add(1);
  BytesCounter().Add(frame.size());
  return Status::OK();
}

Status WriteAheadLog::MaybeSync(bool force) {
  bool want = force;
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
  if (!want) return Status::OK();
  TOPKDUP_FAULT_RETURN_IF("wal.fsync");
  Status s = SyncFd(fd_, path_);
  if (!s.ok()) return s;
  FsyncCounter().Add(1);
  appends_since_sync_ = 0;
  last_sync_ms_ = NowMs();
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  if (poisoned_) {
    return Status::IOError("wal " + path_ +
                           " is poisoned after a failed rollback");
  }
  if (appends_since_sync_ == 0) return Status::OK();
  TOPKDUP_FAULT_RETURN_IF("wal.fsync");
  Status s = SyncFd(fd_, path_);
  if (!s.ok()) return s;
  FsyncCounter().Add(1);
  appends_since_sync_ = 0;
  last_sync_ms_ = NowMs();
  return Status::OK();
}

Status WriteAheadLog::Reset() {
  if (poisoned_) {
    return Status::IOError("wal " + path_ +
                           " is poisoned after a failed rollback");
  }
  if (::ftruncate(fd_, static_cast<off_t>(kFileHeaderBytes)) != 0) {
    return Status::IOError("wal reset truncate failed: " + path_ + ": " +
                           std::strerror(errno));
  }
  if (::lseek(fd_, static_cast<off_t>(kFileHeaderBytes), SEEK_SET) < 0) {
    return Status::IOError("wal reset seek failed: " + path_ + ": " +
                           std::strerror(errno));
  }
  Status s = SyncFd(fd_, path_);
  if (!s.ok()) return s;
  FsyncCounter().Add(1);
  end_offset_ = kFileHeaderBytes;
  appended_bytes_ = 0;
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
  uint64_t dropped = end_offset_ - offset;
  Status s = RollbackTo(offset);
  if (!s.ok()) return s;
  appended_bytes_ -= std::min(appended_bytes_, dropped);
  return Status::OK();
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

Status AtomicWriteFile(const std::string& path, std::string_view data) {
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  Status s = WriteFully(fd, data.data(), data.size());
  if (s.ok()) s = SyncFd(fd, tmp);
  ::close(fd);
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status r = Status::IOError("rename " + tmp + " -> " + path + ": " +
                               std::strerror(errno));
    ::unlink(tmp.c_str());
    return r;
  }
  return SyncParentDir(path);
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

std::string CheckpointPath(const std::string& dir, const std::string& dataset,
                           uint64_t seq_no) {
  char num[24];
  std::snprintf(num, sizeof(num), "%08llu",
                static_cast<unsigned long long>(seq_no));
  return dir + "/" + dataset + "." + num + ".ckpt";
}

std::vector<CheckpointRef> ListCheckpoints(const std::string& dir,
                                           const std::string& dataset) {
  std::vector<CheckpointRef> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  const std::string prefix = dataset + ".";
  const std::string suffix = ".ckpt";
  while (struct dirent* ent = ::readdir(d)) {
    std::string name = ent->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // A checkpoint writer died mid-write; the rename never happened, so
      // the temp file carries no state anyone acknowledged.
      ::unlink((dir + "/" + name).c_str());
      continue;
    }
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    std::string mid =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (mid.empty() ||
        mid.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    CheckpointRef ref;
    ref.seq_no = std::strtoull(mid.c_str(), nullptr, 10);
    ref.path = dir + "/" + name;
    out.push_back(std::move(ref));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const CheckpointRef& a, const CheckpointRef& b) {
              return a.seq_no > b.seq_no;
            });
  return out;
}

void DeleteCheckpointsBefore(const std::string& dir,
                             const std::string& dataset, uint64_t keep_from) {
  for (const CheckpointRef& ref : ListCheckpoints(dir, dataset)) {
    if (ref.seq_no < keep_from) ::unlink(ref.path.c_str());
  }
}

}  // namespace topkdup::serve
