#include "analyzer/probe.h"

#include <algorithm>

#include "util/metrics.h"

namespace dfx::analyzer {
namespace {

// A label that never exists in replicated zones; used for the negative
// response probe, mirroring DNSViz's random non-existent sub-label query.
constexpr const char* kNxLabel = "dnsviz-nxdomain-probe";
// Sorts after every label that appears in replicated zones (0xFA > any
// ASCII letter), so its covering NSEC is the wrap-around record.
constexpr const char* kNxLastLabel = "zzzzzzzz-dnsviz-last";

ServerProbe probe_server(const authserver::AuthServer& server,
                         const dns::Name& apex) {
  ServerProbe out;
  out.server = server.name();
  out.dnskey = server.query(apex, dns::RRType::kDNSKEY);
  out.reachable = out.dnskey.reachable;
  if (!out.reachable) return out;
  ask_apex_questions(
      apex,
      [&server](const dns::Name& qname, dns::RRType qtype) {
        return server.query(qname, qtype);
      },
      out);
  return out;
}

/// The index of the first of `stamps` equal to `stamp` (the server whose
/// answers a server with `stamp` would repeat), or stamps.size().
std::size_t first_equal(const std::vector<ProbeStamp>& stamps,
                        const ProbeStamp& stamp) {
  return static_cast<std::size_t>(
      std::find(stamps.begin(), stamps.end(), stamp) - stamps.begin());
}

}  // namespace

dns::Name nx_probe_name(const dns::Name& apex) {
  return apex.child(kNxLabel);
}

dns::Name last_probe_name(const dns::Name& apex) {
  return apex.child(kNxLastLabel);
}

void ask_apex_questions(const dns::Name& apex, const AskFn& ask,
                        ServerProbe& out) {
  out.soa = ask(apex, dns::RRType::kSOA);
  out.ns = ask(apex, dns::RRType::kNS);
  out.apex_a = ask(apex, dns::RRType::kA);
  out.nsec3param = ask(apex, dns::RRType::kNSEC3PARAM);
  out.nxdomain = ask(nx_probe_name(apex), dns::RRType::kA);
  out.nxdomain_last = ask(last_probe_name(apex), dns::RRType::kA);
  out.nodata = ask(apex, dns::RRType::kMX);
}

ProbeStamp probe_stamp(const authserver::AuthServer& server,
                       const dns::Name& apex) {
  return {server.lame(),
          {server.answering_serial(apex, dns::RRType::kA),
           server.answering_serial(nx_probe_name(apex), dns::RRType::kA),
           server.answering_serial(last_probe_name(apex), dns::RRType::kA)}};
}

ProbeStamp parent_probe_stamp(const authserver::AuthServer& server,
                              const dns::Name& parent_apex) {
  return {server.lame(), {server.zone_serial(parent_apex)}};
}

ZoneProbe probe_zone(const authserver::ServerFarm& farm,
                     const std::vector<dns::Name>& zone_chain,
                     std::size_t index) {
  ZoneProbe zp;
  zp.apex = zone_chain[index];
  std::vector<ProbeStamp> stamps;
  for (const auto* server : farm.servers_for(zp.apex)) {
    const ProbeStamp stamp = probe_stamp(*server, zp.apex);
    const std::size_t first = first_equal(stamps, stamp);
    stamps.push_back(stamp);
    if (first == zp.servers.size() || stamp.lame) {
      zp.servers.push_back(probe_server(*server, zp.apex));
      continue;
    }
    ServerProbe mirror = zp.servers[first];
    mirror.server = server->name();
    mirror.mirror_of = first;
    zp.servers.push_back(std::move(mirror));
  }
  if (index == 0) return zp;
  const dns::Name& parent_apex = zone_chain[index - 1];
  stamps.clear();
  for (const auto* server : farm.servers_for(parent_apex)) {
    ServerProbe pp;
    pp.server = server->name();
    pp.reachable = !server->lame();
    zp.parent_servers.push_back(pp);
    const ProbeStamp stamp = parent_probe_stamp(*server, parent_apex);
    const std::size_t first = first_equal(stamps, stamp);
    stamps.push_back(stamp);
    if (first < zp.parent_ds.size()) {
      zp.parent_ds.push_back(zp.parent_ds[first]);
      zp.parent_ns.push_back(zp.parent_ns[first]);
      continue;
    }
    // Ask the parent-side view explicitly: a server may host both sides
    // of the cut, but the prober needs the delegation as the parent
    // publishes it.
    zp.parent_ds.push_back(
        server->query_in_zone(parent_apex, zp.apex, dns::RRType::kDS));
    zp.parent_ns.push_back(
        server->query_in_zone(parent_apex, zp.apex, dns::RRType::kNS));
  }
  return zp;
}

ProbeData probe(const authserver::ServerFarm& farm,
                const std::vector<dns::Name>& zone_chain,
                const dns::Name& query_domain, UnixTime now) {
  // Cached references: probe() is called per snapshot in tight loops, so
  // the registry lookup happens once (thread-safe magic statics).
  static auto& probe_count = metrics::Registry::global().counter("analyze.probes");
  probe_count.add(1);
  ProbeData data;
  data.query_domain = query_domain;
  data.time = now;
  data.chain.reserve(zone_chain.size());
  for (std::size_t i = 0; i < zone_chain.size(); ++i) {
    data.chain.push_back(probe_zone(farm, zone_chain, i));
  }
  return data;
}

}  // namespace dfx::analyzer
