// ServerFarm: the set of authoritative servers in a sandbox, plus the
// zone → servers hosting map the prober consults.
//
// Thread-safety: the farm's maps are guarded by an annotated Mutex, so
// concurrent probes may look servers up while another thread registers or
// syncs zones. AuthServer objects are heap-allocated and never removed, so
// references handed out stay valid for the farm's lifetime; zone pushes
// (host_zone/sync_zone/push_to_one) serialize through the farm lock. A
// pushed version is read-only and shared by the servers it reaches.
// Mutating one AuthServer from two threads at once is still the caller's
// bug — shard domains, don't share servers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "authserver/authserver.h"
#include "dnscore/name.h"
#include "util/thread_annotations.h"
#include "zone/zone.h"

namespace dfx::authserver {

class ServerFarm {
 public:
  /// Create (or fetch) a server by name.
  AuthServer& server(const std::string& name) DFX_EXCLUDES(*mu_);
  const AuthServer* find_server(const std::string& name) const
      DFX_EXCLUDES(*mu_);

  /// Register every server in `server_names` as hosting `zone.apex()`
  /// (creating servers as needed) and load one version of `zone` onto
  /// them: one copy, one DenialIndex, one load serial, shared by all of
  /// them. Servers already hosting the apex but not named keep their
  /// version. Every push hands load_version() the version a server of the
  /// apex holds, so a push that leaves the denial chain alone shares its
  /// DenialIndex.
  void host_zone(const std::vector<std::string>& server_names,
                 zone::Zone zone) DFX_EXCLUDES(*mu_);

  /// Push a new version to *all* servers hosting the zone (zone transfer).
  /// They share it, so they report the same load serial and the same
  /// zone_data() again, whatever push_to_one() did before.
  void sync_zone(const zone::Zone& zone) DFX_EXCLUDES(*mu_);

  /// Push a version to a single server only. It gets a load serial of its
  /// own and the other servers keep the version they had, which is how
  /// inter-server inconsistencies are injected.
  void push_to_one(const std::string& server_name, const zone::Zone& zone)
      DFX_EXCLUDES(*mu_);

  /// Servers hosting a given zone apex.
  std::vector<AuthServer*> servers_for(const dns::Name& apex)
      DFX_EXCLUDES(*mu_);
  std::vector<const AuthServer*> servers_for(const dns::Name& apex) const
      DFX_EXCLUDES(*mu_);

  std::vector<std::string> server_names() const DFX_EXCLUDES(*mu_);

  /// Bumped when a server is created or a server starts hosting a zone:
  /// an unchanged counter means servers_for() returns the same servers.
  /// What each server answers is stamped apart, by its lame flag and the
  /// load serials of its hosted zones (AuthServer::answering_serial).
  std::uint64_t hosting_version() const DFX_EXCLUDES(*mu_);

 private:
  /// Lookup-or-create for callers already holding mu_.
  AuthServer& server_locked(const std::string& name) DFX_REQUIRES(*mu_);
  /// The version the first server hosting `apex` holds, or null. Taken
  /// under mu_ and used after it is released, so the index build runs
  /// outside the lock.
  std::shared_ptr<const HostedZone> hosted_version(const dns::Name& apex) const
      DFX_EXCLUDES(*mu_);

  // Heap-held so the farm (and the Sandbox embedding it by value) stays
  // movable; a moved-from farm is destroy-only. Never null otherwise.
  mutable std::unique_ptr<Mutex> mu_ = std::make_unique<Mutex>();
  std::map<std::string, std::unique_ptr<AuthServer>> servers_
      DFX_GUARDED_BY(*mu_);
  std::map<dns::Name, std::vector<std::string>, dns::Name::Less> hosting_
      DFX_GUARDED_BY(*mu_);
  std::uint64_t hosting_version_ DFX_GUARDED_BY(*mu_) = 0;
};

}  // namespace dfx::authserver
