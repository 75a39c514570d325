#include "server/service.hpp"

#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "server/observe.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace wck::server {

bool valid_tenant_name(const std::string& name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

CheckpointService::CheckpointService(const Codec& codec, Options options, IoBackend* io)
    : codec_(codec), options_(std::move(options)), io_(io) {
  if (options_.root.empty()) {
    throw InvalidArgumentError("CheckpointService: empty root directory");
  }
  if (options_.max_inflight == 0) {
    throw InvalidArgumentError("CheckpointService: max_inflight must be >= 1");
  }
  std::filesystem::create_directories(options_.root);
  recover_from_disk();
}

// ---------------------------------------------------------------- recovery

void CheckpointService::recover_from_disk() {
  WCK_TRACE_SPAN("server.recovery");
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(options_.root, ec)) {
    if (!entry.is_directory(ec)) continue;
    const std::string name = entry.path().filename().string();
    // Only names a put could have created are tenants; anything else
    // under the root (operator files, quarantine debris moved by hand)
    // is left alone.
    if (!valid_tenant_name(name)) continue;
    Tenant* tenant = nullptr;
    {
      MutexLock lk(tenants_mu_);
      tenant = &create_tenant(name);
    }
    // Scrub outside tenants_mu_: it reads every generation end to end.
    const ScrubReport scrub = tenant->manager->scrub();
    {
      MutexLock lk(tenant->mu);
      tenant->quarantined += scrub.quarantined.size();
      tenant->scrubbed = true;
      tenant->last_scrub = std::chrono::steady_clock::now();
    }
    const std::size_t generations = tenant->manager->generations().size();
    recovery_.tenants += 1;
    recovery_.generations += generations;
    recovery_.tmp_swept += tenant->manager->tmp_files_swept();
    recovery_.quarantined += scrub.quarantined.size();
    WCK_EVENT(kServerRecovery, 0,
              name + ": " + std::to_string(generations) + " generations, " +
                  std::to_string(tenant->manager->tmp_files_swept()) + " tmp swept, " +
                  std::to_string(scrub.quarantined.size()) + " quarantined");
  }
  WCK_COUNTER_ADD("server.recovery.tenants", recovery_.tenants);
  WCK_COUNTER_ADD("server.recovery.generations", recovery_.generations);
  WCK_COUNTER_ADD("server.recovery.tmp_swept", recovery_.tmp_swept);
  WCK_COUNTER_ADD("server.recovery.quarantined", recovery_.quarantined);
}

// --------------------------------------------------------------- admission

CheckpointService::AdmissionSlot::AdmissionSlot(CheckpointService& service) : service_(service) {
  MutexLock lk(service_.admission_mu_);
  if (service_.inflight_ >= service_.options_.max_inflight) {
    if (service_.options_.admission == AdmissionPolicy::kRejectNewest) {
      WCK_COUNTER_ADD("server.admission.rejections", 1);
      WCK_EVENT(kServerBusy, 0,
                std::to_string(service_.inflight_) + " requests in flight");
      throw BusyError("store service: " + std::to_string(service_.inflight_) +
                      " requests in flight (limit " +
                      std::to_string(service_.options_.max_inflight) + ")");
    }
    WCK_COUNTER_ADD("server.admission.blocks", 1);
    service_.admission_cv_.wait(lk, [&service] {
      service.admission_mu_.assert_held();
      return service.inflight_ < service.options_.max_inflight;
    });
  }
  ++service_.inflight_;
  WCK_GAUGE_SET("server.inflight", static_cast<double>(service_.inflight_));
}

CheckpointService::AdmissionSlot::~AdmissionSlot() {
  MutexLock lk(service_.admission_mu_);
  --service_.inflight_;
  WCK_GAUGE_SET("server.inflight", static_cast<double>(service_.inflight_));
  service_.admission_cv_.notify_one();
}

// ----------------------------------------------------------------- tenants

CheckpointService::Tenant& CheckpointService::tenant_for(const std::string& name, bool create) {
  if (!valid_tenant_name(name)) {
    throw InvalidArgumentError("store service: invalid tenant name \"" + name +
                               "\" (want [a-z0-9_-], 1..64 chars)");
  }
  MutexLock lk(tenants_mu_);
  const auto it = tenants_.find(name);
  if (it != tenants_.end()) return *it->second;
  if (!create) throw NotFoundError("store service: unknown tenant \"" + name + "\"");
  return create_tenant(name);
}

CheckpointService::Tenant& CheckpointService::create_tenant(const std::string& name) {
  auto tenant = std::make_unique<Tenant>();
  CheckpointManager::Options mgr;
  mgr.keep_generations = options_.keep_generations;
  mgr.retry = options_.retry;
  mgr.max_total_bytes = options_.tenant_quota_bytes;
  tenant->manager =
      std::make_unique<CheckpointManager>(options_.root / name, codec_, mgr, io_);
  Tenant& ref = *tenant;
  tenants_.emplace(name, std::move(tenant));
  WCK_COUNTER_ADD("server.tenants.created", 1);
  WCK_GAUGE_SET("server.tenants", static_cast<double>(tenants_.size()));
  return ref;
}

// ------------------------------------------------------------ idempotency

std::optional<net::PutOkResponse> CheckpointService::find_completed(
    Tenant& tenant, const net::PutRequest& req) {
  if (req.request_id == 0) return std::nullopt;
  MutexLock lk(tenant.mu);
  const auto it = tenant.completed.find(req.step);
  if (it == tenant.completed.end() || it->second.request_id != req.request_id) {
    return std::nullopt;
  }
  net::PutOkResponse resp = it->second.resp;
  resp.deduplicated = true;
  return resp;
}

void CheckpointService::remember_completed(Tenant& tenant, const net::PutRequest& req,
                                           const net::PutOkResponse& resp) {
  if (req.request_id == 0) return;
  MutexLock lk(tenant.mu);
  tenant.completed[req.step] = CompletedPut{req.request_id, resp};
  while (tenant.completed.size() > kCompletedPutsKept) {
    tenant.completed.erase(tenant.completed.begin());
  }
}

void CheckpointService::begin_put(Tenant& tenant) {
  MutexLock lk(tenant.mu);
  if (!tenant.writing) {
    tenant.writing = true;
    return;
  }
  // Park behind the in-flight put. A newer arrival takes the parking
  // spot (checkpoints supersede), and the displaced caller leaves with
  // a typed BusyError instead of silently losing its snapshot.
  const std::uint64_t ticket = tenant.next_ticket++;
  tenant.parked_ticket = ticket;
  tenant.cv.notify_all();  // wake a previously parked put so it can see it lost
  tenant.cv.wait(lk, [&tenant, ticket] {
    tenant.mu.assert_held();
    return tenant.parked_ticket != ticket || !tenant.writing;
  });
  if (tenant.parked_ticket != ticket) {
    WCK_COUNTER_ADD("server.put.superseded", 1);
    throw BusyError("store service: put superseded by a newer checkpoint");
  }
  tenant.parked_ticket = 0;
  tenant.writing = true;
}

void CheckpointService::end_put(Tenant& tenant) noexcept {
  MutexLock lk(tenant.mu);
  tenant.writing = false;
  tenant.cv.notify_all();
}

void CheckpointService::note_error(Tenant& tenant, const char* kind) noexcept {
  try {
    MutexLock lk(tenant.mu);
    tenant.last_error = kind;
  } catch (...) {
    // Health bookkeeping must never replace the error being reported.
  }
}

// ---------------------------------------------------------------- requests

net::PutOkResponse CheckpointService::put(const net::PutRequest& req) {
  WCK_TRACE_SPAN("server.put");
  WCK_COUNTER_ADD("server.put.requests", 1);
  const AdmissionSlot slot(*this);
  Tenant& tenant = tenant_for(req.tenant, /*create=*/true);

  // Dedup fast path: a retry of an already-committed put (same step,
  // same request_id — its response was lost in transit) is answered
  // from the ledger without touching the store again.
  if (auto dup = find_completed(tenant, req)) {
    WCK_COUNTER_ADD("server.put.deduplicated", 1);
    add_tenant_counter(req.tenant, "dedup_replays");
    return *dup;
  }

  try {
    begin_put(tenant);
  } catch (const BusyError&) {
    // Superseded while parked — but if this request's own original
    // committed in the meantime, "superseded" would be a lie: the
    // caller's checkpoint IS durable. Report the original outcome.
    if (auto dup = find_completed(tenant, req)) {
      WCK_COUNTER_ADD("server.put.deduplicated", 1);
      add_tenant_counter(req.tenant, "dedup_replays");
      return *dup;
    }
    note_error(tenant, "busy");
    add_tenant_counter(req.tenant, "rejects");
    throw;
  }
  // Same race, other exit: the put that just released the window may
  // have been this request's original.
  if (auto dup = find_completed(tenant, req)) {
    end_put(tenant);
    WCK_COUNTER_ADD("server.put.deduplicated", 1);
    add_tenant_counter(req.tenant, "dedup_replays");
    return *dup;
  }

  try {
    NdArray<double> array(req.shape, req.values);
    CheckpointRegistry registry;
    registry.add("state", &array);
    (void)tenant.manager->write(registry, req.step);

    // Report generation file sizes, not codec payload sums: the quota
    // is enforced in file bytes, so these are the numbers a client can
    // budget against.
    const std::vector<CheckpointManager::Generation> gens = tenant.manager->generations();
    net::PutOkResponse resp;
    resp.step = req.step;
    resp.stored_bytes = gens.empty() ? 0 : gens.front().size;
    resp.total_bytes = tenant.manager->total_stored_bytes();
    resp.generations = static_cast<std::uint32_t>(gens.size());
    resp.request_id = req.request_id;
    remember_completed(tenant, req, resp);
    end_put(tenant);
    WCK_COUNTER_ADD("server.put.bytes", resp.stored_bytes);
    add_tenant_counter(req.tenant, "puts");
    if (options_.tenant_quota_bytes > 0) {
      set_tenant_gauge(req.tenant, "quota_utilization",
                       static_cast<double>(resp.total_bytes) /
                           static_cast<double>(options_.tenant_quota_bytes));
    }
    return resp;
  } catch (const QuotaExceededError&) {
    end_put(tenant);
    WCK_COUNTER_ADD("server.put.quota_rejections", 1);
    note_error(tenant, "quota-exceeded");
    add_tenant_counter(req.tenant, "rejects");
    throw;
  } catch (const IoError&) {
    end_put(tenant);
    note_error(tenant, "io");
    throw;
  } catch (...) {
    end_put(tenant);
    note_error(tenant, "internal");
    throw;
  }
}

net::GetOkResponse CheckpointService::get(const net::GetRequest& req) {
  WCK_TRACE_SPAN("server.get");
  WCK_COUNTER_ADD("server.get.requests", 1);
  const AdmissionSlot slot(*this);
  Tenant& tenant = tenant_for(req.tenant, /*create=*/false);

  if (tenant.manager->generations().empty()) {
    throw NotFoundError("store service: tenant \"" + req.tenant +
                        "\" has no committed checkpoint");
  }
  // A default-constructed array lets the restore decide the shape (the
  // generation is self-describing).
  NdArray<double> array;
  CheckpointRegistry registry;
  registry.add("state", &array);
  try {
    const RestoreOutcome outcome = tenant.manager->restore(registry);

    net::GetOkResponse resp;
    resp.step = outcome.step;
    resp.source = static_cast<std::uint8_t>(outcome.source);
    resp.shape = array.shape();
    resp.values.assign(array.values().begin(), array.values().end());
    add_tenant_counter(req.tenant, "gets");
    return resp;
  } catch (const CorruptDataError&) {
    note_error(tenant, "corrupt");
    throw;
  } catch (const IoError&) {
    note_error(tenant, "io");
    throw;
  }
}

net::StatOkResponse CheckpointService::stat(const net::StatRequest& req) {
  WCK_TRACE_SPAN("server.stat");
  WCK_COUNTER_ADD("server.stat.requests", 1);
  const AdmissionSlot slot(*this);

  std::vector<Tenant*> selected;
  std::vector<std::string> names;
  std::size_t known = 0;
  if (req.tenant.empty()) {
    MutexLock lk(tenants_mu_);
    known = tenants_.size();
    for (auto& [name, tenant] : tenants_) {
      names.push_back(name);
      selected.push_back(tenant.get());
    }
  } else {
    Tenant& tenant = tenant_for(req.tenant, /*create=*/false);
    MutexLock lk(tenants_mu_);
    known = tenants_.size();
    names.push_back(req.tenant);
    selected.push_back(&tenant);
  }

  net::StatOkResponse resp;
  resp.tenants = known;
  resp.stats.reserve(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    // The manager snapshot is taken outside tenants_mu_: generations()
    // locks the manager's own monitor and a concurrent put may be
    // holding it while blocked on I/O.
    const std::vector<CheckpointManager::Generation> gens = selected[i]->manager->generations();
    net::TenantStat s;
    s.name = names[i];
    s.generations = gens.size();
    for (const CheckpointManager::Generation& g : gens) s.stored_bytes += g.size;
    s.quota_bytes = options_.tenant_quota_bytes;
    s.newest_step = gens.empty() ? 0 : gens.front().step;
    {
      MutexLock lk(selected[i]->mu);
      s.quarantined = selected[i]->quarantined;
      s.last_error = selected[i]->last_error;
      if (selected[i]->scrubbed) {
        s.scrub_age_ms = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - selected[i]->last_scrub)
                .count());
      }
    }
    resp.stats.push_back(std::move(s));
  }
  return resp;
}

}  // namespace wck::server
