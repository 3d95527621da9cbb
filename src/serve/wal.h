#ifndef TOPKDUP_SERVE_WAL_H_
#define TOPKDUP_SERVE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace topkdup::serve {

/// When an appended record is forced to stable storage.
///
/// Under kill -9 (process death) every record whose Append returned OK
/// survives regardless of policy — the write() hit the page cache before
/// the acknowledgement. The policies differ only for machine-level failures
/// (power loss, kernel panic): kAlways bounds the loss there to zero
/// acknowledged records, kEveryN to at most N, kIntervalMs to one
/// interval's worth, and kNever gives no machine-crash guarantee at all.
enum class WalFsyncPolicy : int {
  kNever = 0,       // Never fsync from Append; only explicit Sync().
  kIntervalMs = 1,  // fsync when interval_ms elapsed since the last sync.
  kEveryN = 2,      // fsync every every_n appended records.
  kAlways = 3,      // fsync after every append.
};

const char* WalFsyncPolicyName(WalFsyncPolicy policy);

/// Parses "never", "interval", "every_n", or "always" (the --wal-fsync
/// flag spellings). Unknown text → InvalidArgument.
StatusOr<WalFsyncPolicy> ParseWalFsyncPolicy(std::string_view text);

struct WalOptions {
  WalFsyncPolicy fsync = WalFsyncPolicy::kAlways;
  /// kIntervalMs: maximum staleness of the newest unsynced record.
  int64_t interval_ms = 50;
  /// kEveryN: fsync once per this many appends.
  uint64_t every_n = 32;
};

/// What WriteAheadLog::Open found in an existing log file.
struct WalReplay {
  /// Every intact frame, in file order: (sequence number, payload).
  std::vector<std::pair<uint64_t, std::string>> records;
  /// Bytes of torn tail discarded (the file was truncated back to the end
  /// of the last intact frame before Open returned).
  uint64_t truncated_tail_bytes = 0;
  /// Largest epoch id stamped on any intact frame (0 if none carried one).
  /// Recovery uses this to re-establish the stream's epoch counter.
  uint64_t max_epoch = 0;
};

/// A per-dataset write-ahead log of CRC32-framed, length-prefixed records:
/// an online stream's whole durable history, one frame per mention.
///
/// File layout: a 16-byte checksummed file header (magic, format version,
/// header CRC) followed by frames of
///
///   [u32 payload_len][u32 crc32][u64 seq][u64 epoch][payload_len bytes]
///
/// where the CRC covers seq + epoch + payload. Append writes a run of
/// frames with a single write() call and applies the fsync policy once; a
/// frame is therefore either wholly present or a recognizable torn tail.
///
/// Open() scans an existing file frame by frame. An incomplete final frame
/// — or a checksum-failed frame that ends exactly at EOF, which is what a
/// torn sector write looks like — is a *torn tail*: the file is truncated
/// back to the last intact frame, the discarded byte count is reported
/// (metric serve.wal.truncated_tail_bytes), and Open succeeds. A
/// checksum-failed or malformed frame with more data after it cannot be a
/// tear, nor can a frame whose length runs past EOF while intact frames
/// follow it; that is mid-file corruption and Open returns InvalidArgument —
/// callers must surface it, never silently serve a state with a hole.
///
/// Not thread-safe: the owner serializes Append/Sync/TruncateTo
/// (QueryService holds the dataset's stream writer lock across ingest +
/// append).
///
/// Fault sites: `wal.append` fires before any bytes are written;
/// `wal.fsync` fires wherever a sync would be issued (policy-triggered or
/// explicit). Both surface as typed Status from Append/Sync.
class WriteAheadLog {
 public:
  /// Opens (creating if absent) the log at `path`, replaying any existing
  /// intact frames into `replay` (may be null to discard them).
  static StatusOr<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& path, const WalOptions& options, WalReplay* replay);

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one frame per payload, with consecutive seqs from
  /// `first_seq`, in one write(), and applies the fsync policy once. On
  /// any failure the file is rolled back to its pre-append size, so a
  /// failed Append leaves no frame of the run behind (IOError if even the
  /// rollback failed — the log is then poisoned and every later call fails
  /// fast). `epoch` is the ingest epoch the records will publish under; it
  /// rides in every frame header so recovery can restore the epoch counter.
  Status Append(uint64_t first_seq, const std::vector<std::string>& payloads,
                uint64_t epoch = 0);

  /// Forces everything appended so far to stable storage.
  Status Sync();

  /// Rolls the log back to `offset` (a value previously read from
  /// end_offset()). The ingest path uses this to withdraw an appended
  /// frame whose in-memory apply then failed, keeping log and stream in
  /// lockstep; failure poisons the log like a failed internal rollback.
  Status TruncateTo(uint64_t offset);

  /// Current end-of-log offset (file header included).
  uint64_t end_offset() const { return end_offset_; }
  const std::string& path() const { return path_; }

  /// Bytes each frame adds in front of its payload.
  static constexpr size_t kFrameHeaderBytes = 24;

 private:
  WriteAheadLog(std::string path, WalOptions options, int fd,
                uint64_t end_offset);

  /// Syncs when the fsync policy asks for it after an append.
  Status MaybeSync();
  Status SyncNow();
  Status RollbackTo(uint64_t offset);

  std::string path_;
  WalOptions options_;
  int fd_ = -1;
  uint64_t end_offset_ = 0;
  uint64_t appends_since_sync_ = 0;
  int64_t last_sync_ms_ = 0;
  bool poisoned_ = false;
};

/// Creates `dir` (and parents) if missing.
Status EnsureDirectory(const std::string& dir);

}  // namespace topkdup::serve

#endif  // TOPKDUP_SERVE_WAL_H_
