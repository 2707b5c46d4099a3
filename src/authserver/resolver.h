// A minimal iterative stub resolver over a ServerFarm.
//
// Walks delegations from a configured root zone down to the query name,
// following NS records and glue, the way a real recursive resolver would.
// Used by examples and integration tests; the DNSViz-style prober in the
// analyzer performs its own (exhaustive, per-server) walk.
#pragma once

#include <optional>
#include <vector>

#include "authserver/farm.h"
#include "dnscore/name.h"
#include "dnscore/rr.h"
#include "dnscore/rrset.h"

namespace dfx::authserver {

struct ResolveResult {
  dns::RCode rcode = dns::RCode::kServFail;
  /// Owned: a CNAME chase joins answers from several zones.
  std::vector<dns::ResourceRecord> answers;
  /// Zones traversed apex-by-apex, root first.
  std::vector<dns::Name> chain;
};

class StubResolver {
 public:
  StubResolver(const ServerFarm& farm, dns::Name root_apex)
      : farm_(farm), root_apex_(std::move(root_apex)) {}

  /// Iteratively resolve qname/qtype starting at the root zone.
  ResolveResult resolve(const dns::Name& qname, dns::RRType qtype,
                        int max_steps = 32) const;

 private:
  const ServerFarm& farm_;
  dns::Name root_apex_;
};

}  // namespace dfx::authserver
