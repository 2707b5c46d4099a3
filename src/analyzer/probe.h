// The probe stage: exhaustively query every authoritative server of every
// zone on the path from the (sandbox) root to the query domain, the way
// `dnsviz probe` does, and collect the raw responses for grok.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "authserver/farm.h"
#include "dnscore/name.h"
#include "util/simclock.h"

namespace dfx::analyzer {

/// Everything one server said about one zone.
struct ServerProbe {
  std::string server;
  bool reachable = true;
  authserver::QueryResult dnskey;      // <apex> DNSKEY
  authserver::QueryResult soa;         // <apex> SOA
  authserver::QueryResult ns;          // <apex> NS
  authserver::QueryResult apex_a;      // <apex> A (positive-data probe)
  authserver::QueryResult nsec3param;  // <apex> NSEC3PARAM
  authserver::QueryResult nxdomain;    // <random-label>.<apex> A
  /// A label chosen to sort canonically after every real name, so the
  /// covering NSEC is the wrap-around record (exercises Incorrect Last NSEC).
  authserver::QueryResult nxdomain_last;
  authserver::QueryResult nodata;      // <apex> MX (type that never exists)
};

/// Everything collected about one zone, including the parent-side view.
struct ZoneProbe {
  dns::Name apex;
  std::vector<ServerProbe> servers;
  /// Parent-side responses (from the parent zone's servers): DS for this
  /// apex and the delegation NS RRset. Empty for the root zone.
  std::vector<ServerProbe> parent_servers;
  std::vector<authserver::QueryResult> parent_ds;
  std::vector<authserver::QueryResult> parent_ns;
};

struct ProbeData {
  dns::Name query_domain;
  UnixTime time = 0;
  /// Zones root-first down to the query zone.
  std::vector<ZoneProbe> chain;
};

/// Probe all servers for each zone in `zone_chain` (root first; each entry
/// must be an ancestor of the next and of `query_domain`): probe_zone()
/// for every position.
ProbeData probe(const authserver::ServerFarm& farm,
                const std::vector<dns::Name>& zone_chain,
                const dns::Name& query_domain, UnixTime now);

/// Probe the zone at `zone_chain[index]`: every server hosting it, and
/// the parent-side DS/NS view from every server hosting
/// `zone_chain[index - 1]` (none for index 0). Reads the servers' lame
/// flags and the hosted zones that answer the questions, nothing else.
ZoneProbe probe_zone(const authserver::ServerFarm& farm,
                     const std::vector<dns::Name>& zone_chain,
                     std::size_t index);

/// The fixed non-existent name the prober asks for under `apex` (grok needs
/// it to interpret the NXDOMAIN probe — including the case where a wildcard
/// turns it into a synthesized positive answer).
dns::Name nx_probe_name(const dns::Name& apex);

/// The sorts-last probe name (`zzzzzzzz-…`) whose covering NSEC must be the
/// chain's wrap-around record.
dns::Name last_probe_name(const dns::Name& apex);

}  // namespace dfx::analyzer
