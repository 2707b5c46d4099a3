#include "analyzer/denial.h"

#include <algorithm>
#include <set>

#include "authserver/authserver.h"
#include "util/codec.h"

namespace dfx::analyzer {

RRsetView extract(const authserver::Section& section,
                  const dns::Name& owner, dns::RRType type) {
  RRsetView view;
  view.rrset = dns::RRset(owner, type, 0);
  bool ttl_set = false;
  for (const auto& rr : section) {
    if (rr.owner != owner) continue;
    if (rr.type == type) {
      if (!ttl_set) {
        view.rrset.set_ttl(rr.ttl);
        ttl_set = true;
      }
      view.rrset.add(rr.rdata);
      view.present = true;
    } else if (rr.type == dns::RRType::kRRSIG) {
      const auto* sig = std::get_if<dns::RrsigRdata>(&rr.rdata);
      if (sig != nullptr && sig->type_covered == type) {
        view.sigs.push_back(*sig);
      }
    }
  }
  return view;
}

std::vector<RRsetView> extract_proofs(const authserver::QueryResult& result,
                                      dns::RRType type) {
  std::vector<RRsetView> out;
  std::set<std::string> seen;
  for (const auto& rr : result.authorities) {
    if (rr.type != type) continue;
    const std::string key = rr.owner.to_string();
    if (!seen.insert(key).second) continue;
    out.push_back(extract(result.authorities, rr.owner, type));
  }
  return out;
}

bool judge_denial(const ServerProbe& sp, const dns::Name& apex,
                  const GrokConfig& config, DenialHooks& hooks) {
  bool secure = true;
  // Every finding but a nonfatal nonzero iteration count makes the zone
  // bogus.
  const auto report = [&](ErrorCode code, std::string detail) {
    hooks.report(code, std::move(detail));
    if (code != ErrorCode::kNonzeroIterationCount || config.nzic_is_fatal) {
      secure = false;
    }
  };
  const auto check_proof = [&](const RRsetView& view) {
    if (!hooks.check_proof(view)) secure = false;
  };

  // Which denial mechanism does the zone use?
  const auto nsec3_nx = extract_proofs(sp.nxdomain, dns::RRType::kNSEC3);
  const auto nsec_nx = extract_proofs(sp.nxdomain, dns::RRType::kNSEC);
  const bool uses_nsec3 = !nsec3_nx.empty();

  // The NSEC3PARAM record advertises the chain parameters: a nonzero
  // iteration count is a violation even when negative proofs are absent.
  {
    const auto param_view =
        extract(sp.nsec3param.answers, apex, dns::RRType::kNSEC3PARAM);
    for (const auto& rdata : param_view.rrset.rdatas()) {
      const auto* param = std::get_if<dns::Nsec3ParamRdata>(&rdata);
      if (param != nullptr && param->iterations > 0) {
        report(ErrorCode::kNonzeroIterationCount,
               "NSEC3PARAM iterations=" + std::to_string(param->iterations) +
                   " (RFC 9276 requires 0)");
      }
      if (param != nullptr &&
          param->iterations > config.max_nsec3_iterations) {
        report(ErrorCode::kExcessiveNsec3Iterations,
               "NSEC3PARAM iterations=" + std::to_string(param->iterations) +
                   " exceeds the validator cap of " +
                   std::to_string(config.max_nsec3_iterations));
      }
    }
  }

  // Validate proof signatures (tampered-but-unsigned proofs surface as
  // ordinary signature failures).
  for (const auto* group : {&nsec3_nx, &nsec_nx}) {
    for (const auto& view : *group) check_proof(view);
  }

  if (sp.nxdomain.rcode == dns::RCode::kNXDomain && nsec3_nx.empty() &&
      nsec_nx.empty()) {
    report(ErrorCode::kMissingNonexistenceProof,
           "NXDOMAIN response carries no NSEC or NSEC3 records");
    return secure;
  }

  const dns::Name nx_name = nx_probe_name(apex);
  // A NODATA probe answered positively (the zone does hold the type) is
  // not a missing denial.
  const auto report_unproven_nodata = [&] {
    const auto& auth = sp.nodata.authorities;
    if (sp.nodata.rcode == dns::RCode::kNoError && sp.nodata.answers.empty() &&
        std::none_of(auth.begin(), auth.end(), [](const auto& rr) {
          return rr.type == dns::RRType::kNSEC ||
                 rr.type == dns::RRType::kNSEC3;
        })) {
      report(ErrorCode::kMissingNonexistenceProof,
             "NODATA response carries no NSEC or NSEC3 records");
    }
  };

  if (uses_nsec3) {
    // --- NSEC3 record sanity ---------------------------------------------
    struct Entry {
      Bytes owner_hash;
      const dns::Nsec3Rdata* rdata;
    };
    std::vector<Entry> entries;
    bool params_ok = true;
    std::optional<bool> opt_out_seen;
    // Sanity checks run over every NSEC3 seen in any negative response of
    // this server (the NXDOMAIN probes and the NODATA probe): chain-level
    // inconsistencies like mixed opt-out flags are visible only across the
    // union.
    std::vector<RRsetView> sanity_views = nsec3_nx;
    for (const auto& view :
         extract_proofs(sp.nxdomain_last, dns::RRType::kNSEC3)) {
      sanity_views.push_back(view);
    }
    for (const auto& view : extract_proofs(sp.nodata, dns::RRType::kNSEC3)) {
      sanity_views.push_back(view);
    }
    std::set<std::string> seen_owner;
    for (const auto& view : sanity_views) {
      if (!seen_owner.insert(view.rrset.owner().to_string()).second) {
        continue;
      }
      const bool in_nxdomain = std::any_of(
          nsec3_nx.begin(), nsec3_nx.end(), [&](const RRsetView& v) {
            return v.rrset.owner() == view.rrset.owner();
          });
      for (const auto& rdata : view.rrset.rdatas()) {
        const auto* n3 = std::get_if<dns::Nsec3Rdata>(&rdata);
        if (n3 == nullptr) continue;
        if (n3->hash_algorithm != 1) {
          report(ErrorCode::kUnsupportedNsec3Algorithm,
                 "NSEC3 hash algorithm " +
                     std::to_string(n3->hash_algorithm) + " is not defined");
          params_ok = false;
        }
        if (n3->iterations > 0) {
          report(ErrorCode::kNonzeroIterationCount,
                 "NSEC3 iterations=" + std::to_string(n3->iterations) +
                     " (RFC 9276 requires 0)");
        }
        if (n3->iterations > config.max_nsec3_iterations) {
          // KeyTrap hash variant: refuse oversized iteration counts before
          // hashing anything (patched validators treat the zone as bogus
          // rather than paying the per-lookup SHA-1 bill).
          report(ErrorCode::kExcessiveNsec3Iterations,
                 "NSEC3 iterations=" + std::to_string(n3->iterations) +
                     " exceeds the validator cap of " +
                     std::to_string(config.max_nsec3_iterations));
          params_ok = false;
        }
        if (n3->next_hashed.size() != 20) {
          report(ErrorCode::kInvalidNsec3Hash,
                 "NSEC3 next-hashed field has length " +
                     std::to_string(n3->next_hashed.size()) +
                     ", expected 20 (SHA-1)");
          params_ok = false;
        }
        auto decoded = base32hex_decode(view.rrset.owner().leftmost_label());
        if (!decoded || decoded->size() != 20) {
          report(ErrorCode::kInvalidNsec3OwnerName,
                 "NSEC3 owner label " + view.rrset.owner().leftmost_label() +
                     " is not a valid SHA-1 base32hex hash");
          params_ok = false;
          continue;
        }
        if (opt_out_seen.has_value() && *opt_out_seen != n3->opt_out()) {
          report(ErrorCode::kIncorrectOptOutFlag,
                 "NSEC3 records disagree on the opt-out flag");
        }
        opt_out_seen = n3->opt_out();
        if (in_nxdomain) entries.push_back({*std::move(decoded), n3});
      }
    }
    if (!params_ok || entries.empty()) return secure;
    const Bytes& salt = entries.front().rdata->salt;
    const std::uint16_t iterations = entries.front().rdata->iterations;
    // Once the caller's hashing budget is spent, hash_of yields empty and
    // the walk below bails out instead of emitting bogus proof errors.
    bool exhausted = false;
    const auto hash_of = [&](const dns::Name& name) -> Bytes {
      auto h = hooks.hash(name, salt, iterations);
      if (!h) {
        exhausted = true;
        return {};
      }
      return *std::move(h);
    };
    const auto find_match = [&](const dns::Name& name) -> const Entry* {
      const Bytes h = hash_of(name);
      if (h.empty()) return nullptr;
      for (const auto& e : entries) {
        if (e.owner_hash == h) return &e;
      }
      return nullptr;
    };
    const auto find_cover = [&](const dns::Name& name) -> const Entry* {
      const Bytes h = hash_of(name);
      if (h.empty()) return nullptr;
      for (const auto& e : entries) {
        if (authserver::nsec3_hash_covers(e.owner_hash, e.rdata->next_hashed,
                                          h)) {
          return &e;
        }
      }
      return nullptr;
    };

    if (sp.nxdomain.rcode == dns::RCode::kNXDomain) {
      // Closest-encloser proof (RFC 5155 §8.4). For the probe name the
      // closest encloser is the apex and the next closer is the probe name.
      const Entry* ce = nullptr;
      dns::Name ce_name = nx_name;
      while (ce_name.label_count() >= apex.label_count()) {
        if (ce_name.label_count() < nx_name.label_count()) {
          ce = find_match(ce_name);
          if (ce != nullptr) break;
        }
        if (ce_name.is_root()) break;
        ce_name = ce_name.parent();
      }
      if (exhausted) return false;
      if (ce == nullptr) {
        if (find_cover(nx_name) != nullptr) {
          report(ErrorCode::kInconsistentAncestorForNxdomain,
                 "no NSEC3 record matches any ancestor of the denied name");
        } else {
          report(ErrorCode::kBadNonexistenceProof,
                 "NSEC3 records neither match nor cover the denied name");
        }
        return secure;
      }
      dns::Name next_closer = nx_name;
      while (next_closer.label_count() > ce_name.label_count() + 1) {
        next_closer = next_closer.parent();
      }
      const Entry* nc_cover = find_cover(next_closer);
      if (exhausted) return false;
      if (nc_cover == nullptr) {
        report(ErrorCode::kIncorrectClosestEncloserProof,
               "no NSEC3 record covers the next-closer name " +
                   next_closer.to_string());
        return secure;
      }
      const dns::Name wildcard = ce_name.child("*");
      if (find_cover(wildcard) == nullptr &&
          find_match(wildcard) == nullptr && !nc_cover->rdata->opt_out() &&
          !exhausted) {
        report(ErrorCode::kBadNonexistenceProof,
               "no NSEC3 record denies the wildcard " + wildcard.to_string());
      }
      if (exhausted) return false;
    }

    // NODATA probe (apex MX): the matching NSEC3's bitmap is authoritative.
    for (const auto& view : extract_proofs(sp.nodata, dns::RRType::kNSEC3)) {
      check_proof(view);
      for (const auto& rdata : view.rrset.rdatas()) {
        const auto* n3 = std::get_if<dns::Nsec3Rdata>(&rdata);
        if (n3 == nullptr) continue;
        auto decoded = base32hex_decode(view.rrset.owner().leftmost_label());
        if (!decoded || *decoded != hash_of(apex)) continue;
        if (n3->types.contains(dns::RRType::kMX)) {
          report(ErrorCode::kIncorrectTypeBitmap,
                 "NSEC3 bitmap asserts MX exists at the apex, but the server "
                 "answered NODATA");
        }
        if (!n3->types.contains(dns::RRType::kSOA) ||
            !n3->types.contains(dns::RRType::kNS)) {
          report(ErrorCode::kIncorrectTypeBitmap,
                 "NSEC3 bitmap at the apex omits SOA/NS");
        }
      }
    }
    report_unproven_nodata();
    return secure;
  }

  // --- NSEC ----------------------------------------------------------------
  if (sp.nxdomain.rcode == dns::RCode::kNXDomain) {
    bool covered = false;
    for (const auto& view : nsec_nx) {
      for (const auto& rdata : view.rrset.rdatas()) {
        const auto* nsec = std::get_if<dns::NsecRdata>(&rdata);
        if (nsec == nullptr) continue;
        if (authserver::nsec_covers(view.rrset.owner(), nsec->next,
                                    nx_name)) {
          covered = true;
        }
      }
    }
    if (!covered) {
      report(ErrorCode::kBadNonexistenceProof,
             "no NSEC record covers the denied name " + nx_name.to_string());
    }
    // Wrap-around sanity via the sorts-last probe: the covering NSEC there
    // must be the final chain record pointing back to the apex.
    const dns::Name last_name = last_probe_name(apex);
    for (const auto& view :
         extract_proofs(sp.nxdomain_last, dns::RRType::kNSEC)) {
      check_proof(view);
      for (const auto& rdata : view.rrset.rdatas()) {
        const auto* nsec = std::get_if<dns::NsecRdata>(&rdata);
        if (nsec == nullptr) continue;
        if (authserver::nsec_covers(view.rrset.owner(), nsec->next,
                                    last_name) &&
            view.rrset.owner() > nsec->next && nsec->next != apex) {
          report(ErrorCode::kIncorrectLastNsec,
                 "the final NSEC record points to " + nsec->next.to_string() +
                     " instead of the zone apex");
        }
      }
    }
  }

  // NODATA bitmap check.
  for (const auto& view : extract_proofs(sp.nodata, dns::RRType::kNSEC)) {
    check_proof(view);
    if (view.rrset.owner() != apex) continue;
    for (const auto& rdata : view.rrset.rdatas()) {
      const auto* nsec = std::get_if<dns::NsecRdata>(&rdata);
      if (nsec == nullptr) continue;
      if (nsec->types.contains(dns::RRType::kMX)) {
        report(ErrorCode::kIncorrectTypeBitmap,
               "NSEC bitmap asserts MX exists at the apex, but the server "
               "answered NODATA");
      }
      if (!nsec->types.contains(dns::RRType::kSOA) ||
          !nsec->types.contains(dns::RRType::kNS)) {
        report(ErrorCode::kIncorrectTypeBitmap,
               "NSEC bitmap at the apex omits SOA/NS");
      }
    }
  }
  report_unproven_nodata();
  return secure;
}

}  // namespace dfx::analyzer
