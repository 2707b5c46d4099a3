#include "authserver/farm.h"

#include <algorithm>
#include <stdexcept>

namespace dfx::authserver {

AuthServer& ServerFarm::server_locked(const std::string& name) {
  auto it = servers_.find(name);
  if (it == servers_.end()) {
    it = servers_.emplace(name, std::make_unique<AuthServer>(name)).first;
    ++hosting_version_;
  }
  return *it->second;
}

AuthServer& ServerFarm::server(const std::string& name) {
  const MutexLock lock(*mu_);
  return server_locked(name);
}

const AuthServer* ServerFarm::find_server(const std::string& name) const {
  const MutexLock lock(*mu_);
  const auto it = servers_.find(name);
  return it == servers_.end() ? nullptr : it->second.get();
}

std::shared_ptr<const HostedZone> ServerFarm::hosted_version(
    const dns::Name& apex) const {
  const MutexLock lock(*mu_);
  const auto it = hosting_.find(apex);
  if (it == hosting_.end()) return nullptr;
  for (const auto& name : it->second) {
    const auto srv = servers_.find(name);
    if (srv == servers_.end()) continue;
    if (auto version = srv->second->hosted(apex)) return version;
  }
  return nullptr;
}

void ServerFarm::host_zone(const std::vector<std::string>& server_names,
                           zone::Zone zone) {
  const auto previous = hosted_version(zone.apex());
  const auto version = load_version(std::move(zone), previous.get());
  const dns::Name& apex = version->zone.apex();
  const MutexLock lock(*mu_);
  auto& hosts = hosting_[apex];
  for (const auto& name : server_names) {
    server_locked(name).load_zone(version);
    if (std::find(hosts.begin(), hosts.end(), name) == hosts.end()) {
      hosts.push_back(name);
      ++hosting_version_;
    }
  }
}

void ServerFarm::sync_zone(const zone::Zone& zone) {
  const auto version =
      load_version(zone, hosted_version(zone.apex()).get());
  const MutexLock lock(*mu_);
  const auto it = hosting_.find(zone.apex());
  if (it == hosting_.end()) {
    throw std::invalid_argument("sync_zone: zone not hosted anywhere: " +
                                zone.apex().to_string());
  }
  for (const auto& name : it->second) server_locked(name).load_zone(version);
}

void ServerFarm::push_to_one(const std::string& server_name,
                             const zone::Zone& zone) {
  auto version = load_version(zone, hosted_version(zone.apex()).get());
  const MutexLock lock(*mu_);
  const auto it = hosting_.find(zone.apex());
  if (it == hosting_.end() ||
      std::find(it->second.begin(), it->second.end(), server_name) ==
          it->second.end()) {
    throw std::invalid_argument("push_to_one: " + server_name +
                                " does not host " + zone.apex().to_string());
  }
  server_locked(server_name).load_zone(std::move(version));
}

std::vector<AuthServer*> ServerFarm::servers_for(const dns::Name& apex) {
  std::vector<AuthServer*> out;
  const MutexLock lock(*mu_);
  const auto it = hosting_.find(apex);
  if (it == hosting_.end()) return out;
  for (const auto& name : it->second) out.push_back(&server_locked(name));
  return out;
}

std::vector<const AuthServer*> ServerFarm::servers_for(
    const dns::Name& apex) const {
  std::vector<const AuthServer*> out;
  const MutexLock lock(*mu_);
  const auto it = hosting_.find(apex);
  if (it == hosting_.end()) return out;
  for (const auto& name : it->second) {
    const auto srv = servers_.find(name);
    if (srv != servers_.end()) out.push_back(srv->second.get());
  }
  return out;
}

std::uint64_t ServerFarm::hosting_version() const {
  const MutexLock lock(*mu_);
  return hosting_version_;
}

std::vector<std::string> ServerFarm::server_names() const {
  std::vector<std::string> out;
  const MutexLock lock(*mu_);
  out.reserve(servers_.size());
  for (const auto& [name, _] : servers_) out.push_back(name);
  return out;
}

}  // namespace dfx::authserver
