#include "authserver/resolver.h"

namespace dfx::authserver {

ResolveResult StubResolver::resolve(const dns::Name& qname, dns::RRType qtype,
                                    int max_steps) const {
  ResolveResult result;
  dns::Name current_zone = root_apex_;
  for (int step = 0; step < max_steps; ++step) {
    result.chain.push_back(current_zone);
    const auto servers = farm_.servers_for(current_zone);
    const AuthServer* responsive = nullptr;
    QueryResult reply;
    for (const auto* srv : servers) {
      reply = srv->query(qname, qtype);
      if (reply.reachable && reply.rcode != dns::RCode::kRefused) {
        responsive = srv;
        break;
      }
    }
    if (responsive == nullptr) {
      result.rcode = dns::RCode::kServFail;  // lame delegation
      return result;
    }
    if (!reply.answers.empty() || reply.rcode == dns::RCode::kNXDomain ||
        reply.authoritative) {
      result.rcode = reply.rcode;
      result.answers = reply.answers.to_records();
      // Chase in-zone CNAMEs.
      if (!reply.answers.empty() && qtype != dns::RRType::kCNAME) {
        const dns::RecordRef last = reply.answers.back();
        if (last.type == dns::RRType::kCNAME) {
          const auto* cname = std::get_if<dns::CnameRdata>(&last.rdata);
          if (cname != nullptr) {
            auto chased = resolve(cname->target, qtype, max_steps - step - 1);
            result.rcode = chased.rcode;
            for (auto& rr : chased.answers) {
              result.answers.push_back(std::move(rr));
            }
          }
        }
      }
      return result;
    }
    // Referral: find the delegated child zone that encloses qname.
    std::optional<dns::Name> next_zone;
    for (const auto& rr : reply.authorities) {
      if (rr.type == dns::RRType::kNS && qname.is_subdomain_of(rr.owner) &&
          rr.owner.label_count() > current_zone.label_count()) {
        next_zone = rr.owner;
        break;
      }
    }
    if (!next_zone) {
      result.rcode = dns::RCode::kServFail;
      return result;
    }
    current_zone = *next_zone;
  }
  result.rcode = dns::RCode::kServFail;
  return result;
}

}  // namespace dfx::authserver
