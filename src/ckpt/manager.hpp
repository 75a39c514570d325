// CheckpointManager — the resilience policy layer over write/restore.
//
// A checkpoint exists to survive failures, so the write path must
// tolerate transient I/O errors (retry with capped exponential
// backoff), the store must survive a corrupt file (keep-K generation
// rotation of self-checking files), and restore must degrade loudly and
// gracefully instead of failing or — worse — silently restoring wrong
// state: newest generation first, CRC-verified, falling back through
// older generations and finally to XOR-parity reconstruction
// (src/redundancy) when a peer-memory store is attached. scrub()
// proactively verifies every generation and quarantines corrupt ones.
//
// Layout in the managed directory:
//   ckpt.<step>.wck      one generation per committed step, committed
//                        atomically+durably; the checkpoint format's
//                        CRC-32 trailer and header step make each file
//                        its own record (src/ckpt/checkpoint.hpp)
//   *.quarantined.<n>    corrupt generations set aside by scrub()
//
// The directory is the only index: the constructor lists the
// `ckpt.<step>.wck` files with their sizes, newest first, and the
// manager keeps that list in memory from then on.
//
// Telemetry: ckpt.write.retries / ckpt.write.giveups,
// ckpt.restore.fallbacks / ckpt.restore.parity_reconstructions,
// ckpt.scrub.checked / ckpt.scrub.corrupt, gauge ckpt.generations.
//
// Parallelism: the manager is codec-agnostic; pass a WaveletLossyCodec
// whose CompressionParams set threads (or export WCK_THREADS) and every
// generation's entropy stage codes its segments on that many workers
// (src/deflate/parallel.hpp) with no manager changes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "io/io_backend.hpp"
#include "redundancy/xor_parity.hpp"
#include "util/backoff.hpp"
#include "util/thread_annotations.hpp"

namespace wck {

/// Capped exponential backoff for retriable (IoError) write failures.
/// The ladder itself lives in util/backoff.hpp so the StoreClient's
/// retry layer and the manager share one cadence definition.
using RetryPolicy = BackoffPolicy;

/// Where a successful restore actually came from.
enum class RestoreSource : std::uint8_t {
  kPrimary,          ///< newest generation, first try
  kOlderGeneration,  ///< a fallback generation
  kParity,           ///< XOR-parity reconstruction from the attached store
};

[[nodiscard]] const char* restore_source_name(RestoreSource source) noexcept;

/// The step of a generation file name `ckpt.<step>.wck`; nullopt for any
/// other name (temp files, quarantined generations, foreign files).
[[nodiscard]] std::optional<std::uint64_t> step_from_file_name(const std::string& name);

/// Result of CheckpointManager::restore — says which state the
/// application is actually running from.
struct RestoreOutcome {
  CheckpointInfo info;
  std::uint64_t step = 0;
  RestoreSource source = RestoreSource::kPrimary;
  std::size_t generations_tried = 0;  ///< candidates attempted (>=1)
  std::filesystem::path path;         ///< restored file (empty for parity)
};

struct ScrubReport {
  std::size_t checked = 0;
  std::size_t corrupt = 0;
  std::vector<std::filesystem::path> quarantined;
};

struct CheckpointManagerOptions {
  std::size_t keep_generations = 3;  ///< >= 1
  RetryPolicy retry;
  /// Byte quota over the committed generation files. A write() whose
  /// file would push the post-rotation total past this throws
  /// QuotaExceededError *before* touching the store; 0 disables.
  /// Accounting follows the generation list, so rotation and scrub()
  /// quarantine both return their bytes to the budget.
  std::uint64_t max_total_bytes = 0;
};

class CheckpointManager {
 public:
  using Options = CheckpointManagerOptions;

  /// Creates `dir` if needed and adopts the generations already in it
  /// (restart support): lists them, rotates any beyond keep_generations
  /// out as the next write would, and sweeps commit debris. The codec
  /// and backend must outlive the manager; a null backend means the
  /// process default (default_io_backend()).
  CheckpointManager(std::filesystem::path dir, const Codec& codec, Options options = {},
                    IoBackend* io = nullptr);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Serializes the registry and durably commits generation
  /// `ckpt.<step>.wck`, retrying per the RetryPolicy, then rotates out
  /// generations beyond keep_generations.
  /// Throws IoError after the final attempt fails (counted as a
  /// giveup). Also mirrors the payload into the attached parity store,
  /// when there is one.
  ///
  /// The manager is a monitor: write/restore/scrub serialize on one
  /// internal mutex, so concurrent callers (e.g. an async flush racing
  /// a foreground scrub) see one consistent generation list.
  [[nodiscard]] CheckpointInfo write(const CheckpointRegistry& registry, std::uint64_t step)
      WCK_EXCLUDES(mu_);

  /// Restores the newest restorable generation: read + CRC and step
  /// check + transactional decode, falling back through older
  /// generations, then parity reconstruction. Throws CorruptDataError
  /// when nothing is restorable. The registry arrays are only modified
  /// by the generation that actually restores.
  [[nodiscard]] RestoreOutcome restore(const CheckpointRegistry& registry) WCK_EXCLUDES(mu_);

  /// Verifies every generation without decoding it (verify_checkpoint:
  /// magic, version, CRCs, step); corrupt ones are renamed to
  /// `<file>.quarantined.<n>` and dropped from the generation list.
  [[nodiscard]] ScrubReport scrub() WCK_EXCLUDES(mu_);

  /// Attaches a peer-memory parity store: write() mirrors every payload
  /// to `rank`, restore() falls back to store.retrieve(rank) when no
  /// on-disk generation is restorable. The store must outlive the
  /// manager; nullptr detaches.
  void attach_parity_store(InMemoryCheckpointStore* store, std::size_t rank)
      WCK_EXCLUDES(mu_);

  /// One committed generation.
  struct Generation {
    std::uint64_t step = 0;
    std::uint64_t size = 0;  ///< file size in bytes
    std::string file;        ///< name relative to dir()
  };
  /// Copy of the committed generations (newest first). Returned by
  /// value: a reference into the live vector could be invalidated (and
  /// raced) by a concurrent write()/scrub().
  [[nodiscard]] std::vector<Generation> generations() const WCK_EXCLUDES(mu_);
  /// Stale `*.tmp.*` files (commits torn by a crash) removed by the
  /// constructor's sweep. They were never generations, so deleting them
  /// is always safe — but a crashed process would otherwise leak them
  /// forever.
  [[nodiscard]] std::size_t tmp_files_swept() const noexcept { return tmp_swept_; }
  /// Sum of the committed generation sizes — the value the
  /// max_total_bytes quota is enforced against.
  [[nodiscard]] std::uint64_t total_stored_bytes() const WCK_EXCLUDES(mu_);
  [[nodiscard]] const std::filesystem::path& dir() const noexcept { return dir_; }

 private:
  [[nodiscard]] IoBackend& io() const noexcept;
  /// Constructor-only: lists the generations and sweeps stale files.
  void scan_directory() WCK_REQUIRES(mu_);
  void commit_with_retry(const std::filesystem::path& path, const Bytes& data);
  void rotate() WCK_REQUIRES(mu_);
  /// Reads + verifies + restores one generation; returns the info on
  /// success, nullopt (after counting the reason) on any failure.
  std::optional<CheckpointInfo> try_restore_generation(const Generation& gen,
                                                       const CheckpointRegistry& registry);

  // Immutable after construction — need no guard.
  const std::filesystem::path dir_;
  const Codec& codec_;
  const Options options_;
  IoBackend* const io_;

  mutable Mutex mu_;
  std::vector<Generation> generations_ WCK_GUARDED_BY(mu_);  ///< newest first
  InMemoryCheckpointStore* parity_store_ WCK_GUARDED_BY(mu_) = nullptr;
  std::size_t parity_rank_ WCK_GUARDED_BY(mu_) = 0;
  std::uint64_t quarantine_seq_ WCK_GUARDED_BY(mu_) = 0;
  std::size_t tmp_swept_ = 0;  ///< set once in the constructor
};

}  // namespace wck
