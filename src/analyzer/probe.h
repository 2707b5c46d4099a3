// The probe stage: exhaustively query every authoritative server of every
// zone on the path from the (sandbox) root to the query domain, the way
// `dnsviz probe` does, and collect the raw responses for grok.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
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
  /// Set when this server's stamp (probe_stamp()) equals that of the
  /// earlier server at this index in ZoneProbe::servers, which was probed
  /// in full and is no mirror itself: the answers below are a copy of
  /// its answers, not asked again. Grok may skip a mirror's per-server
  /// checks, which could only repeat what the first server's found.
  std::optional<std::size_t> mirror_of;
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

/// Puts one question about a zone to whatever answers it: a server, or
/// one zone version's answer path.
using AskFn = std::function<authserver::QueryResult(const dns::Name& qname,
                                                    dns::RRType qtype)>;

/// The questions a prober puts to a server after the apex DNSKEY, in
/// order: apex SOA, NS, A and NSEC3PARAM, A at nx_probe_name() and at
/// last_probe_name(), and apex MX (the NODATA probe). Each answer goes to
/// its field of `out`. probe_zone() asks them of every server; zonelint
/// asks them of `authserver::answer`, so both collect the same views.
void ask_apex_questions(const dns::Name& apex, const AskFn& ask,
                        ServerProbe& out);

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

/// What a server's answers to probe_zone()'s questions about one zone
/// depend on. Zone side: the lame flag and the load serials of the hosted
/// zones answering the apex, the NX probe name and the sorts-last probe
/// name. Parent side: the lame flag and the parent zone's serial in [0].
/// Hosted versions are read-only and two versions never share a serial,
/// so two servers with equal stamps give equal answers, and a server
/// whose stamp has not changed answers as it did.
struct ProbeStamp {
  bool lame = false;
  std::array<std::uint64_t, 3> serials{};

  bool operator==(const ProbeStamp&) const = default;
};

/// `server`'s zone-side stamp for the zone at `apex`.
ProbeStamp probe_stamp(const authserver::AuthServer& server,
                       const dns::Name& apex);

/// `server`'s parent-side stamp (the DS/NS view of a child) for the
/// parent zone at `parent_apex`.
ProbeStamp parent_probe_stamp(const authserver::AuthServer& server,
                              const dns::Name& parent_apex);

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
/// Each distinct stamp is asked once: a reachable server whose stamp
/// equals an earlier one's gets a copy of that server's answers with
/// `mirror_of` set, and the parent-side DS/NS pair is copied the same way
/// between servers with equal parent-side stamps.
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
