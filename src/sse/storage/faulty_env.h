#ifndef SSE_STORAGE_FAULTY_ENV_H_
#define SSE_STORAGE_FAULTY_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sse/storage/env.h"

namespace sse::storage {

/// Deterministic fault-injecting, fully in-memory `Env` — the disk-side
/// counterpart of `net::ChaosChannel::FailCall`.
///
/// FaultyEnv keeps two worlds per file: the *live* bytes an open handle or
/// reader observes, and the *durable* bytes that survive a crash. A file
/// `Sync` promotes live content to durable; `SyncDir` promotes namespace
/// changes (creations, renames, removals) of a directory's immediate
/// children. `Crash()` throws away everything not durable — including
/// renamed-but-unsynced directory entries, which models the classic
/// rename-without-parent-fsync durability hole — and additionally persists
/// a deterministic pseudo-random prefix of each file's unsynced suffix
/// (torn write-back, as a real page cache would).
///
/// Every faultable operation (Append, Sync, SyncDir, Rename, Remove, file
/// creation, ReadFile) consumes one index from a global operation counter.
/// Tests schedule faults at exact indices via `FailAt`/`CrashAt`, so a
/// crash-recovery sweep can hit *every* operation the system under test
/// performs. Thread-safe; operations after a crash fail with IO_ERROR until
/// `Restart()`.
class FaultyEnv final : public Env {
 public:
  enum class FaultKind {
    kEio,         // operation fails with IO_ERROR, no side effect
    kShortWrite,  // Append persists only a prefix of the data, then fails
    kSyncFail,    // Sync/SyncDir fails; nothing is promoted to durable
    kCrash,       // process crash: live world reset to the durable world
  };

  explicit FaultyEnv(uint64_t torn_write_seed = 0x53534531u)
      : torn_write_seed_(torn_write_seed) {}

  // Env interface -----------------------------------------------------------
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<Bytes> ReadFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  Result<uint64_t> FileSize(const std::string& path) override;

  // Fault scheduling --------------------------------------------------------

  /// Schedules `kind` to fire when the operation counter reaches
  /// `op_index` (0-based). The faulted operation still consumes its index.
  void FailAt(uint64_t op_index, FaultKind kind);
  void CrashAt(uint64_t op_index) { FailAt(op_index, FaultKind::kCrash); }
  void ClearSchedule();

  /// Immediately crashes: live state reverts to durable state (with torn
  /// write-back of unsynced suffixes) and all further operations fail until
  /// `Restart()`.
  void Crash();

  /// Clears the crashed flag, as if the process restarted against the
  /// surviving disk image. The operation counter keeps running.
  void Restart();

  /// Total faultable operations observed so far (ops attempted after a
  /// crash and before the matching Restart are not counted).
  uint64_t ops() const;
  bool crashed() const;

  /// One entry per counted operation, e.g. "append wal.000001.log" —
  /// lets tests locate "the 3rd sync" without hard-coding indices.
  std::vector<std::string> op_log() const;

  /// Flips one byte (XOR 0xFF) in both the live and durable image of
  /// `path`, for corruption-fallback tests.
  Status CorruptByte(const std::string& path, uint64_t offset);

 private:
  struct Inode {
    Bytes live;
    Bytes durable;
  };
  using Namespace = std::map<std::string, std::shared_ptr<Inode>>;
  class FaultyWritableFile;

  // Both helpers assume `mu_` is held. `Account` counts one faultable
  // operation and applies any scheduled fault; a kShortWrite fault is
  // reported through `*short_write` (when the caller supports it) so the
  // caller can persist the partial prefix before failing.
  Status Account(const std::string& what, bool* short_write);
  void CrashLocked();

  mutable std::mutex mu_;
  Namespace live_ns_;
  Namespace durable_ns_;
  std::map<uint64_t, FaultKind> schedule_;
  std::vector<std::string> op_log_;
  uint64_t op_counter_ = 0;
  uint64_t crash_epoch_ = 0;
  bool crashed_ = false;
  const uint64_t torn_write_seed_;
};

}  // namespace sse::storage

#endif  // SSE_STORAGE_FAULTY_ENV_H_
