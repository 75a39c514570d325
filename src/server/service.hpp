// CheckpointService — the multi-tenant store core behind `wckpt serve`.
//
// Each tenant is an isolated namespace: its own directory under the
// service root, its own CheckpointManager (keep-K rotation of
// self-checking generation files, retry/backoff, scrub quarantine — the
// whole resilience stack from src/ckpt) and its own byte quota. The service itself adds
// the two policies a shared store needs on top:
//
//   * Admission control — a bounded count of in-flight requests,
//     either blocking arrivals (kBlock) or rejecting the newest with a
//     typed BusyError (kRejectNewest). Same semantics as the
//     AsyncCheckpointWriter queue, applied at the service boundary.
//   * Put coalescing — per tenant, at most one put runs and at most
//     one waits. A third put supersedes the parked one (checkpoints
//     are snapshots: the newest state is the only one worth the I/O),
//     and the superseded caller gets a BusyError — loud, typed, never
//     a silently dropped checkpoint.
//
// The service is transport-agnostic: StoreServer (server.hpp) speaks
// the wire protocol and calls straight into these methods, and tests
// exercise quota/coalescing logic without a socket in sight.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "ckpt/codec.hpp"
#include "ckpt/manager.hpp"
#include "net/protocol.hpp"
#include "util/thread_annotations.hpp"

namespace wck::server {

/// What happens to a request that arrives while max_inflight requests
/// are already executing.
enum class AdmissionPolicy : std::uint8_t {
  kBlock,         ///< wait for a slot (backpressure by blocking)
  kRejectNewest,  ///< throw BusyError immediately (client retries)
};

struct CheckpointServiceOptions {
  /// Tenant directories live directly under this root.
  std::filesystem::path root;
  /// Per-tenant keep-K rotation depth (CheckpointManager).
  std::size_t keep_generations = 3;
  /// Per-tenant byte quota over committed generations; 0 = unlimited.
  std::uint64_t tenant_quota_bytes = 0;
  /// Requests executing at once before admission control engages.
  std::size_t max_inflight = 8;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Write retry/backoff, passed through to every tenant's manager.
  RetryPolicy retry;
};

/// What the constructor's crash-recovery scan found under the root.
struct RecoveryReport {
  std::size_t tenants = 0;      ///< namespaces rebuilt from their directories
  std::size_t generations = 0;  ///< committed generations re-adopted
  std::size_t tmp_swept = 0;    ///< stale commit temp files removed
  std::size_t quarantined = 0;  ///< unreadable generations quarantined by scrub
};

class CheckpointService {
 public:
  using Options = CheckpointServiceOptions;

  /// The codec (and optional backend) must outlive the service; a null
  /// backend means the process default. Creates `options.root` eagerly
  /// so a bad path fails at startup, not mid-request, then runs crash
  /// recovery: every directory under the root whose name is a valid
  /// tenant name is re-adopted (the manager's directory scan rebuilds
  /// the quota ledger), stale commit temp files are swept, and unreadable
  /// generations are quarantined by a scrub pass — so a SIGKILL'd
  /// server restarts into exactly the state its durable commits
  /// describe, instead of rediscovering tenants only when a put
  /// happens to recreate them.
  CheckpointService(const Codec& codec, Options options, IoBackend* io = nullptr);

  CheckpointService(const CheckpointService&) = delete;
  CheckpointService& operator=(const CheckpointService&) = delete;

  /// Commits one generation for the tenant (creating it on first use).
  /// Throws InvalidArgumentError (bad tenant name), BusyError
  /// (admission rejection or superseded by a newer put),
  /// QuotaExceededError (store untouched), IoError (commit failed
  /// after retries).
  [[nodiscard]] net::PutOkResponse put(const net::PutRequest& req);

  /// Restores the tenant's newest restorable generation through the
  /// manager's full fallback chain. Throws NotFoundError for an
  /// unknown/empty tenant, CorruptDataError when nothing is restorable.
  [[nodiscard]] net::GetOkResponse get(const net::GetRequest& req);

  /// Quota/generation accounting for one tenant (throws NotFoundError
  /// when unknown) or, with an empty tenant name, for all of them.
  [[nodiscard]] net::StatOkResponse stat(const net::StatRequest& req);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// What startup recovery found. Set once in the constructor.
  [[nodiscard]] const RecoveryReport& recovery() const noexcept { return recovery_; }

 private:
  /// Newest committed outcome per step, remembered so a client retry of
  /// a put whose response was lost (same request_id) is answered with
  /// the original result instead of re-committed.
  struct CompletedPut {
    std::uint64_t request_id = 0;
    net::PutOkResponse resp;
  };
  /// Committed steps remembered per tenant for put deduplication. Small
  /// and bounded: a retry arrives within a round-trip of its original,
  /// not a thousand steps later.
  static constexpr std::size_t kCompletedPutsKept = 128;

  struct Tenant {
    std::unique_ptr<CheckpointManager> manager;
    Mutex mu;
    CondVar cv;
    bool writing WCK_GUARDED_BY(mu) = false;
    /// Ticket of the put currently parked behind the in-flight one;
    /// 0 = none. A newer arrival overwrites it (supersession).
    std::uint64_t parked_ticket WCK_GUARDED_BY(mu) = 0;
    std::uint64_t next_ticket WCK_GUARDED_BY(mu) = 1;
    /// Dedup ledger keyed by step; pruned to kCompletedPutsKept.
    std::map<std::uint64_t, CompletedPut> completed WCK_GUARDED_BY(mu);
    // Health, surfaced by stat() as TenantStat's health fields.
    std::uint64_t quarantined WCK_GUARDED_BY(mu) = 0;  ///< scrub quarantines
    std::string last_error WCK_GUARDED_BY(mu);  ///< ErrorCode-style kind; "" = none
    bool scrubbed WCK_GUARDED_BY(mu) = false;
    std::chrono::steady_clock::time_point last_scrub WCK_GUARDED_BY(mu){};
  };

  /// RAII admission slot: constructor blocks or throws BusyError per
  /// the policy, destructor frees the slot.
  class AdmissionSlot {
   public:
    explicit AdmissionSlot(CheckpointService& service);
    ~AdmissionSlot();
    AdmissionSlot(const AdmissionSlot&) = delete;
    AdmissionSlot& operator=(const AdmissionSlot&) = delete;

   private:
    CheckpointService& service_;
  };

  /// Looks the tenant up, creating it when `create` (put) and throwing
  /// NotFoundError otherwise (get / named stat). Validates the name.
  [[nodiscard]] Tenant& tenant_for(const std::string& name, bool create)
      WCK_EXCLUDES(tenants_mu_);
  /// Instantiates a tenant (manager construction scans its directory).
  [[nodiscard]] Tenant& create_tenant(const std::string& name) WCK_REQUIRES(tenants_mu_);
  /// Constructor-only: re-adopts on-disk tenants and scrubs them.
  void recover_from_disk() WCK_EXCLUDES(tenants_mu_);
  /// The dedup ledger entry matching this request, if its commit
  /// already happened; refreshes nothing — the reply is the original.
  [[nodiscard]] std::optional<net::PutOkResponse> find_completed(
      Tenant& tenant, const net::PutRequest& req) WCK_EXCLUDES(tenant.mu);
  void remember_completed(Tenant& tenant, const net::PutRequest& req,
                          const net::PutOkResponse& resp) WCK_EXCLUDES(tenant.mu);
  /// Begin/end of the per-tenant coalescing window around a put.
  void begin_put(Tenant& tenant) WCK_EXCLUDES(tenant.mu);
  void end_put(Tenant& tenant) noexcept WCK_EXCLUDES(tenant.mu);
  /// Records the most recent storage/rejection error kind on the
  /// tenant's health (shown as TenantStat::last_error).
  void note_error(Tenant& tenant, const char* kind) noexcept WCK_EXCLUDES(tenant.mu);

  const Codec& codec_;
  const Options options_;
  IoBackend* const io_;
  RecoveryReport recovery_;  ///< written once by the constructor

  mutable Mutex tenants_mu_;
  /// std::map: node-based, so Tenant addresses stay stable while the
  /// map grows under new arrivals.
  std::map<std::string, std::unique_ptr<Tenant>> tenants_ WCK_GUARDED_BY(tenants_mu_);

  mutable Mutex admission_mu_;
  CondVar admission_cv_;
  std::size_t inflight_ WCK_GUARDED_BY(admission_mu_) = 0;
};

/// True when `name` is a valid tenant name: [a-z0-9_-], 1..64 chars.
/// The name becomes a directory component, so this is also the path
/// traversal guard — no '/', no '.', no empty string.
[[nodiscard]] bool valid_tenant_name(const std::string& name) noexcept;

}  // namespace wck::server
