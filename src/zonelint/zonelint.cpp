#include "zonelint/zonelint.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "analyzer/probe.h"
#include "authserver/authserver.h"
#include "crypto/algorithm.h"
#include "dnscore/rr.h"
#include "util/codec.h"
#include "zone/nsec3.h"

namespace dfx::zonelint {
namespace {

using analyzer::ErrorCategory;
using analyzer::ErrorCode;

// ---- Fix-spec builders ----------------------------------------------------

/// Re-sign the zone with its current denial parameters (optionally forcing
/// the NSEC3 iteration count down) and push to every server.
zone::Instruction fix_resign(const TrustGraph& g, const dns::Name& apex,
                             std::optional<std::uint16_t> iterations = {}) {
  zone::Instruction ins;
  ins.kind = zone::InstructionKind::kSignZone;
  zone::SignZoneParams p;
  p.zone = apex;
  if (g.denial.uses_nsec3()) {
    p.nsec3 = true;
    std::uint16_t current = 0;
    if (g.denial.params.has_value()) {
      current = g.denial.params->iterations;
      if (!g.denial.params->salt.empty()) {
        p.nsec3_salt_hex = hex_encode(g.denial.params->salt);
      }
    }
    p.nsec3_iterations = iterations.value_or(current);
    for (const auto& span : g.denial.nsec3) {
      if (span.rdata.opt_out()) {
        p.opt_out = true;
        break;
      }
    }
  }
  ins.description = iterations.has_value()
                        ? "re-sign the zone with NSEC3 iterations=" +
                              std::to_string(*iterations) +
                              " and synchronize all servers"
                        : "re-sign the zone and synchronize all servers";
  ins.commands.push_back(zone::cmd_signzone(p));
  ins.commands.push_back(zone::cmd_sync_servers(apex));
  return ins;
}

/// Remove every surplus key of each colliding (key tag, algorithm) group,
/// then re-sign. This is the DFixer repair for the KeyTrap pairing shapes.
zone::Instruction fix_prune_colliding(const TrustGraph& g,
                                      const dns::Name& apex) {
  zone::Instruction ins;
  ins.kind = zone::InstructionKind::kRemoveRevokedKey;
  ins.description =
      "remove the surplus DNSKEYs sharing a (key tag, algorithm) pair, "
      "then re-sign";
  std::map<std::pair<std::uint16_t, std::uint8_t>, std::size_t> tag_count;
  for (const auto& key : g.keys) {
    ++tag_count[{key.tag, key.rdata.algorithm}];
  }
  for (const auto& [tag_alg, count] : tag_count) {
    if (count < 2) continue;
    ins.commands.push_back(zone::cmd_remove_key_file(apex, tag_alg.first));
  }
  const auto resign = fix_resign(g, apex);
  for (const auto& cmd : resign.commands) ins.commands.push_back(cmd);
  return ins;
}

zone::Instruction fix_remove_key(const dns::Name& apex, std::uint16_t tag) {
  zone::Instruction ins;
  ins.kind = zone::InstructionKind::kRemoveRevokedKey;
  ins.description = "remove DNSKEY key_tag=" + std::to_string(tag) +
                    " and re-sign the zone";
  ins.commands.push_back(zone::cmd_remove_key_file(apex, tag));
  ins.commands.push_back(zone::cmd_signzone({.zone = apex}));
  ins.commands.push_back(zone::cmd_sync_servers(apex));
  return ins;
}

zone::Instruction fix_remove_ds(const dns::Name& apex,
                                const dns::DsRdata& ds) {
  zone::Instruction ins;
  ins.kind = zone::InstructionKind::kRemoveIncorrectDs;
  ins.description = "remove the stale DS key_tag=" +
                    std::to_string(ds.key_tag) + " at the parent";
  ins.commands.push_back(
      zone::cmd_remove_ds(apex, ds.key_tag, hex_encode(ds.digest)));
  return ins;
}

// ---- Finding sink ---------------------------------------------------------

/// Mirrors grok's ErrorSink: de-duplicate by code (one zone here), route
/// companion-category codes to the companion list.
class Sink {
 public:
  explicit Sink(Report& report) : report_(report) {}

  void add(ErrorCode code, const dns::Name& zone, std::string detail,
           zone::Instruction fix = {}) {
    auto& dst = analyzer::category_of(code) == ErrorCategory::kCompanion
                    ? report_.companions
                    : report_.findings;
    for (const auto& f : dst) {
      if (f.code == code) return;
    }
    dst.push_back(Finding{code, zone, std::move(detail), std::move(fix)});
  }

 private:
  Report& report_;
};

// ---- Probe responses -------------------------------------------------------

/// What the denial rules read from one probe response. The response comes
/// from the auth server's own answer path, so the lint judges exactly the
/// proof records grok is served. Judging the whole chain in the zone file
/// would diverge: a salt-tampered NSEC3 ring always yields *some* cover
/// zone-wide, flipping kBadNonexistenceProof into
/// kInconsistentAncestorForNxdomain.
struct ProbeResponse {
  dns::RCode rcode = dns::RCode::kNoError;
  /// Owners of the served NSEC/NSEC3 records, de-duplicated in response
  /// order (grok's per-owner view extraction).
  std::vector<dns::Name> owners;
  bool positive = false;  // answered from an existing RRset
  bool wildcard = false;  // wildcard-synthesized positive answer
};

ProbeResponse ask(const zone::Zone& zone,
                  const authserver::DenialIndex& denial,
                  const dns::Name& qname, dns::RRType qtype) {
  const auto result = authserver::answer(zone, denial, qname, qtype);
  ProbeResponse out;
  out.rcode = result.rcode;
  out.positive = !result.answers.empty();
  out.wildcard = out.positive && !zone.name_exists(qname);
  for (const auto& rr : result.authorities) {
    if (rr.type != dns::RRType::kNSEC && rr.type != dns::RRType::kNSEC3) {
      continue;
    }
    if (std::find(out.owners.begin(), out.owners.end(), rr.owner) ==
        out.owners.end()) {
      out.owners.push_back(rr.owner);
    }
  }
  return out;
}

// ---- The rules engine -----------------------------------------------------

class Linter {
 public:
  Linter(const zone::Zone& zone, const TrustGraph& g,
         const LintOptions& options, Report& report)
      : zone_(zone),
        g_(g),
        options_(options),
        apex_(zone.apex()),
        sink_(report) {
    for (std::size_t i = 0; i < g_.keys.size(); ++i) all_keys_.push_back(i);
  }

  void run() {
    check_keys();
    check_ds();
    if (!g_.is_signed()) return;
    check_visible_rrsets();
    check_algorithm_completeness();
    check_denial();
    check_budget();
  }

 private:
  const RRsetNode* find_node(const dns::Name& owner, dns::RRType type) const {
    for (const auto& node : g_.rrsets) {
      if (node.rrset->owner() == owner && node.rrset->type() == type) {
        return &node;
      }
    }
    return nullptr;
  }

  // Rule A — key-level checks (grok's gather_dnskeys).
  void check_keys() {
    if (!g_.is_signed()) return;
    for (const auto& key : g_.keys) {
      if (!key.plausible_length) {
        sink_.add(ErrorCode::kBadKeyLength, apex_,
                  "DNSKEY key_tag=" + std::to_string(key.tag) +
                      " has an invalid key length for algorithm " +
                      std::to_string(key.rdata.algorithm),
                  fix_remove_key(apex_, key.tag));
      }
    }
    std::map<std::pair<std::uint16_t, std::uint8_t>, std::size_t> tag_count;
    for (const auto& key : g_.keys) {
      ++tag_count[{key.tag, key.rdata.algorithm}];
    }
    for (const auto& [tag_alg, count] : tag_count) {
      if (count < 2) continue;
      sink_.add(ErrorCode::kCollidingKeyTags, apex_,
                std::to_string(count) + " DNSKEYs share key_tag=" +
                    std::to_string(tag_alg.first) + " algorithm=" +
                    std::to_string(tag_alg.second),
                fix_prune_colliding(g_, apex_));
    }
  }

  // Rule B — DS ↔ DNSKEY linkage (grok's validate_ds), per parent DS link.
  void check_ds() {
    if (g_.ds_links.empty()) return;
    for (const auto& link : g_.ds_links) {
      const auto& ds = link.rdata;
      const std::string ds_id = "DS key_tag=" + std::to_string(ds.key_tag) +
                                " algorithm=" + std::to_string(ds.algorithm);
      if (!link.matched_key.has_value()) {
        if (link.revoked_link.has_value()) {
          const auto& key = g_.keys[*link.revoked_link];
          sink_.add(ErrorCode::kRevokedKey, apex_,
                    ds_id + " is linked to a revoked DNSKEY (key_tag=" +
                        std::to_string(key.tag) + ")",
                    fix_remove_key(apex_, key.tag));
          sink_.add(ErrorCode::kNoSecureEntryPoint, apex_,
                    ds_id + " provides no secure entry point (key revoked)");
        } else if (!link.algorithm_present) {
          sink_.add(ErrorCode::kMissingKskForAlgorithm, apex_,
                    ds_id + " references an algorithm with no DNSKEY",
                    fix_remove_ds(apex_, ds));
        } else {
          sink_.add(ErrorCode::kMissingDnskeyForDs, apex_,
                    g_.keys.empty() ? ds_id + " has no DNSKEY RRset to match"
                                    : ds_id + " matches no DNSKEY",
                    fix_remove_ds(apex_, ds));
        }
        continue;
      }
      const KeyNode& matched = g_.keys[*link.matched_key];
      if (matched.revoked) {
        sink_.add(ErrorCode::kRevokedKey, apex_,
                  ds_id + " references a DNSKEY with the REVOKE flag set",
                  fix_remove_key(apex_, matched.tag));
        sink_.add(ErrorCode::kNoSecureEntryPoint, apex_,
                  ds_id + " provides no secure entry point (key revoked)");
        continue;
      }
      if (!link.digest_supported) continue;  // unsupported digest: DS ignored
      if (!link.digest_ok) {
        sink_.add(ErrorCode::kInvalidDigest, apex_,
                  ds_id + " digest does not match the DNSKEY",
                  fix_remove_ds(apex_, ds));
        continue;
      }
      sep_keys_.push_back(*link.matched_key);
    }
    if (g_.keys.empty()) {
      sink_.add(ErrorCode::kMissingDnskeyForDs, apex_,
                "DS present at the parent but the zone has no DNSKEY RRset");
    }
    if (sep_keys_.empty()) {
      sink_.add(ErrorCode::kNoSecureEntryPoint, apex_,
                "no DS record establishes a secure entry point");
    }
  }

  // Rule C — signature checks over the RRsets a validator actually
  // inspects: the apex DNSKEY/SOA/NS/A sets, a wildcard-synthesized
  // answer, and the proof records the server would select (Rule E calls
  // back in for those). Mirrors grok's check_rrset.
  void check_rrset_node(const RRsetNode* node,
                        const std::vector<std::size_t>& allowed,
                        bool require_signature) {
    if (node == nullptr || node->rrset->empty()) return;
    const auto& rrset = *node->rrset;
    if (node->sigs.empty()) {
      if (require_signature) {
        sink_.add(ErrorCode::kMissingSignature, apex_,
                  "no RRSIG covering " + rrset.owner().to_string() + "/" +
                      dns::rrtype_to_string(rrset.type()),
                  fix_resign(g_, apex_));
      }
      return;
    }
    const auto allowed_candidates = [&](const SigEdge& sig) {
      std::vector<std::size_t> out;
      for (std::size_t ki : sig.candidates) {
        if (std::find(allowed.begin(), allowed.end(), ki) != allowed.end()) {
          out.push_back(ki);
        }
      }
      return out;
    };
    std::size_t pairings = 0;
    for (const auto& sig : node->sigs) {
      pairings += allowed_candidates(sig).size();
    }
    if (pairings > options_.budget.sig_pairing_threshold) {
      sink_.add(ErrorCode::kExcessiveSignatureValidations, apex_,
                "RRset " + rrset.owner().to_string() + "/" +
                    dns::rrtype_to_string(rrset.type()) + " demands " +
                    std::to_string(pairings) +
                    " candidate signature validations (threshold " +
                    std::to_string(options_.budget.sig_pairing_threshold) +
                    ")",
                fix_prune_colliding(g_, apex_));
    }
    for (const auto& edge : node->sigs) {
      const auto& sig = edge.rdata;
      const std::string sig_id =
          "RRSIG " + rrset.owner().to_string() + "/" +
          dns::rrtype_to_string(rrset.type()) +
          " key_tag=" + std::to_string(sig.key_tag);
      if (options_.now != 0) {
        if (sig.expiration < options_.now) {
          sink_.add(ErrorCode::kExpiredSignature, apex_, sig_id + " expired",
                    fix_resign(g_, apex_));
        }
        if (sig.inception > options_.now) {
          sink_.add(ErrorCode::kNotYetValidSignature, apex_,
                    sig_id + " is not yet valid", fix_resign(g_, apex_));
        }
      }
      if (sig.signer != apex_) {
        sink_.add(ErrorCode::kIncorrectSigner, apex_,
                  sig_id + " signer " + sig.signer.to_string() +
                      " is not the zone apex",
                  fix_resign(g_, apex_));
      }
      const std::size_t expected_labels =
          rrset.owner().label_count() -
          (rrset.owner().leftmost_label() == "*" ? 1 : 0);
      if (sig.labels > expected_labels) {
        sink_.add(ErrorCode::kIncorrectSignatureLabels, apex_,
                  sig_id + " labels field " + std::to_string(sig.labels) +
                      " exceeds the owner's label count " +
                      std::to_string(expected_labels),
                  fix_resign(g_, apex_));
      }
      if (!crypto::plausible_signature_length(sig.algorithm,
                                              sig.signature.size())) {
        sink_.add(ErrorCode::kBadSignatureLength, apex_,
                  sig_id + " has an implausible signature length " +
                      std::to_string(sig.signature.size()),
                  fix_resign(g_, apex_));
      }
      if (sig.original_ttl < rrset.ttl()) {
        sink_.add(ErrorCode::kOriginalTtlExceedsRrsetTtl, apex_,
                  sig_id + " original TTL " +
                      std::to_string(sig.original_ttl) +
                      " is below the served RRset TTL " +
                      std::to_string(rrset.ttl()),
                  fix_resign(g_, apex_));
      }
      if (options_.now != 0 && sig.expiration > options_.now &&
          static_cast<UnixTime>(rrset.ttl()) > sig.expiration - options_.now) {
        sink_.add(ErrorCode::kTtlBeyondExpiration, apex_,
                  sig_id + " allows caching beyond signature expiration",
                  fix_resign(g_, apex_));
      }
      // A signature by a key entirely absent from the DNSKEY RRset is the
      // one kInvalidSignature case visible without cryptography.
      if (allowed_candidates(edge).empty() && edge.candidates.empty()) {
        sink_.add(ErrorCode::kInvalidSignature, apex_,
                  sig_id + " was made by a key not in the DNSKEY RRset",
                  fix_resign(g_, apex_));
      }
    }
  }

  void check_visible_rrsets() {
    // DNSKEY RRset: when DS-anchored, only SEP keys may sign it; islands
    // of trust fall back to internal consistency against all keys.
    const std::vector<std::size_t>& dnskey_signers =
        g_.ds_links.empty() ? all_keys_ : sep_keys_;
    check_rrset_node(find_node(apex_, dns::RRType::kDNSKEY), dnskey_signers,
                     true);
    for (dns::RRType type :
         {dns::RRType::kSOA, dns::RRType::kNS, dns::RRType::kA}) {
      check_rrset_node(find_node(apex_, type), all_keys_, true);
    }
  }

  // Rule D — RFC 4035 algorithm completeness (grok's
  // check_algorithm_completeness over the apex data RRsets).
  void check_algorithm_completeness() {
    std::set<std::uint8_t> dnskey_algorithms;
    for (const auto& key : g_.keys) {
      if (key.revoked) continue;
      dnskey_algorithms.insert(key.rdata.algorithm);
    }
    for (dns::RRType type :
         {dns::RRType::kSOA, dns::RRType::kNS, dns::RRType::kA}) {
      const RRsetNode* node = find_node(apex_, type);
      if (node == nullptr || node->rrset->empty() || node->sigs.empty()) {
        continue;
      }
      std::set<std::uint8_t> sig_algorithms;
      for (const auto& sig : node->sigs) {
        sig_algorithms.insert(sig.rdata.algorithm);
      }
      for (std::uint8_t alg : dnskey_algorithms) {
        if (!sig_algorithms.contains(alg)) {
          sink_.add(ErrorCode::kIncompleteAlgorithmSetup, apex_,
                    "RRset " + node->rrset->owner().to_string() + "/" +
                        dns::rrtype_to_string(node->rrset->type()) +
                        " lacks an RRSIG with algorithm " +
                        std::to_string(alg),
                    fix_resign(g_, apex_));
        }
      }
    }
    std::set<std::uint8_t> ds_algorithms;
    for (const auto& link : g_.ds_links) {
      ds_algorithms.insert(link.rdata.algorithm);
    }
    const RRsetNode* dnskey_node = find_node(apex_, dns::RRType::kDNSKEY);
    if (dnskey_node != nullptr && !dnskey_node->rrset->empty()) {
      std::set<std::uint8_t> sig_algorithms;
      for (const auto& sig : dnskey_node->sigs) {
        sig_algorithms.insert(sig.rdata.algorithm);
      }
      for (std::uint8_t alg : ds_algorithms) {
        if (!sig_algorithms.contains(alg)) {
          sink_.add(ErrorCode::kMissingSignatureForAlgorithm, apex_,
                    "no RRSIG with DS algorithm " + std::to_string(alg) +
                        " covers the DNSKEY RRset");
        }
      }
    }
  }

  // Rule E — denial-of-existence (grok's validate_negative, run over the
  // auth server's responses to the three negative probes).
  void check_denial() {
    // The NSEC3PARAM advertisement is checked regardless of which proofs a
    // negative answer would carry.
    if (g_.denial.params.has_value()) {
      const auto& p = *g_.denial.params;
      if (p.iterations > 0) {
        sink_.add(ErrorCode::kNonzeroIterationCount, apex_,
                  "NSEC3PARAM iterations=" + std::to_string(p.iterations) +
                      " (RFC 9276 requires 0)",
                  fix_resign(g_, apex_, std::uint16_t{0}));
      }
      if (p.iterations > options_.budget.max_nsec3_iterations) {
        sink_.add(ErrorCode::kExcessiveNsec3Iterations, apex_,
                  "NSEC3PARAM iterations=" + std::to_string(p.iterations) +
                      " exceeds the validator cap of " +
                      std::to_string(options_.budget.max_nsec3_iterations),
                  fix_resign(g_, apex_, std::uint16_t{0}));
      }
    }

    // One index serves all three probes. The server picks the proof
    // mechanism off the apex NSEC3PARAM RRset.
    const authserver::DenialIndex denial(zone_);
    const bool nsec3_path = denial.nsec3();
    const dns::Name nx_name = analyzer::nx_probe_name(apex_);
    const dns::Name last_name = analyzer::last_probe_name(apex_);
    const ProbeResponse nx = ask(zone_, denial, nx_name, dns::RRType::kA);
    const ProbeResponse last = ask(zone_, denial, last_name, dns::RRType::kA);
    const ProbeResponse nodata = ask(zone_, denial, apex_, dns::RRType::kMX);
    const dns::RRType proof_type =
        nsec3_path ? dns::RRType::kNSEC3 : dns::RRType::kNSEC;

    // A wildcard-synthesized positive answer must be signed and carry the
    // next-closer proof (RFC 4035 §3.1.3.3).
    if (nx.wildcard) {
      check_rrset_node(find_node(apex_.child("*"), dns::RRType::kA),
                       all_keys_, true);
      if (nx.owners.empty()) {
        sink_.add(ErrorCode::kMissingNonexistenceProof, apex_,
                  "wildcard-synthesized answer lacks the proof that the "
                  "query name itself does not exist",
                  fix_resign(g_, apex_));
      }
    }

    // Proof signatures of the NXDOMAIN response.
    for (const auto& owner : nx.owners) {
      check_rrset_node(find_node(owner, proof_type), all_keys_, true);
    }
    if (nx.rcode == dns::RCode::kNXDomain && nx.owners.empty()) {
      sink_.add(ErrorCode::kMissingNonexistenceProof, apex_,
                "NXDOMAIN response carries no NSEC or NSEC3 records",
                fix_resign(g_, apex_));
      return;
    }

    const bool uses_nsec3 = nsec3_path && !nx.owners.empty();
    if (uses_nsec3) {
      check_denial_nsec3(nx, last, nodata, nx_name);
    } else {
      check_denial_nsec(nx, last, nodata, nx_name, last_name);
    }
  }

  void check_denial_nsec3(const ProbeResponse& nx, const ProbeResponse& last,
                          const ProbeResponse& nodata,
                          const dns::Name& nx_name) {
    struct Entry {
      Bytes owner_hash;
      const dns::Nsec3Rdata* rdata;
    };
    std::vector<Entry> entries;
    bool params_ok = true;
    std::optional<bool> opt_out_seen;
    // Sanity runs over the union of every NSEC3 any negative response
    // serves, de-duplicated by owner in response order.
    std::vector<dns::Name> sanity_owners;
    for (const auto* response : {&nx, &last, &nodata}) {
      for (const auto& owner : response->owners) {
        if (std::find(sanity_owners.begin(), sanity_owners.end(), owner) ==
            sanity_owners.end()) {
          sanity_owners.push_back(owner);
        }
      }
    }
    for (const auto& owner : sanity_owners) {
      const bool in_nxdomain =
          std::find(nx.owners.begin(), nx.owners.end(), owner) !=
          nx.owners.end();
      const auto* rrset = zone_.find(owner, dns::RRType::kNSEC3);
      if (rrset == nullptr) continue;
      for (const auto& rdata : rrset->rdatas()) {
        const auto* n3 = std::get_if<dns::Nsec3Rdata>(&rdata);
        if (n3 == nullptr) continue;
        if (n3->hash_algorithm != 1) {
          sink_.add(ErrorCode::kUnsupportedNsec3Algorithm, apex_,
                    "NSEC3 hash algorithm " +
                        std::to_string(n3->hash_algorithm) +
                        " is not defined",
                    fix_resign(g_, apex_));
          params_ok = false;
        }
        if (n3->iterations > 0) {
          sink_.add(ErrorCode::kNonzeroIterationCount, apex_,
                    "NSEC3 iterations=" + std::to_string(n3->iterations) +
                        " (RFC 9276 requires 0)",
                    fix_resign(g_, apex_, std::uint16_t{0}));
        }
        if (n3->iterations > options_.budget.max_nsec3_iterations) {
          sink_.add(ErrorCode::kExcessiveNsec3Iterations, apex_,
                    "NSEC3 iterations=" + std::to_string(n3->iterations) +
                        " exceeds the validator cap of " +
                        std::to_string(
                            options_.budget.max_nsec3_iterations),
                    fix_resign(g_, apex_, std::uint16_t{0}));
          params_ok = false;
        }
        if (n3->next_hashed.size() != 20) {
          sink_.add(ErrorCode::kInvalidNsec3Hash, apex_,
                    "NSEC3 next-hashed field has length " +
                        std::to_string(n3->next_hashed.size()) +
                        ", expected 20 (SHA-1)",
                    fix_resign(g_, apex_));
          params_ok = false;
        }
        auto decoded = base32hex_decode(owner.leftmost_label());
        if (!decoded || decoded->size() != 20) {
          sink_.add(ErrorCode::kInvalidNsec3OwnerName, apex_,
                    "NSEC3 owner label " + owner.leftmost_label() +
                        " is not a valid SHA-1 base32hex hash",
                    fix_resign(g_, apex_));
          params_ok = false;
          continue;
        }
        if (opt_out_seen.has_value() && *opt_out_seen != n3->opt_out()) {
          sink_.add(ErrorCode::kIncorrectOptOutFlag, apex_,
                    "NSEC3 records disagree on the opt-out flag",
                    fix_resign(g_, apex_));
        }
        opt_out_seen = n3->opt_out();
        if (in_nxdomain) entries.push_back({*std::move(decoded), n3});
      }
    }
    if (!params_ok || entries.empty()) return;
    const Bytes& salt = entries.front().rdata->salt;
    const std::uint16_t iterations = entries.front().rdata->iterations;
    const auto hash_of = [&](const dns::Name& name) {
      return zone::nsec3_hash(name, salt, iterations);
    };
    const auto find_match = [&](const dns::Name& name) -> const Entry* {
      const Bytes h = hash_of(name);
      for (const auto& e : entries) {
        if (e.owner_hash == h) return &e;
      }
      return nullptr;
    };
    const auto find_cover = [&](const dns::Name& name) -> const Entry* {
      const Bytes h = hash_of(name);
      for (const auto& e : entries) {
        if (authserver::nsec3_hash_covers(e.owner_hash, e.rdata->next_hashed,
                                          h)) {
          return &e;
        }
      }
      return nullptr;
    };

    if (nx.rcode == dns::RCode::kNXDomain) {
      // Closest-encloser proof (RFC 5155 §8.4) over the served subset.
      const Entry* ce = nullptr;
      dns::Name ce_name = nx_name;
      while (ce_name.label_count() >= apex_.label_count()) {
        if (ce_name.label_count() < nx_name.label_count()) {
          ce = find_match(ce_name);
          if (ce != nullptr) break;
        }
        if (ce_name.is_root()) break;
        ce_name = ce_name.parent();
      }
      if (ce == nullptr) {
        if (find_cover(nx_name) != nullptr) {
          sink_.add(ErrorCode::kInconsistentAncestorForNxdomain, apex_,
                    "no NSEC3 record matches any ancestor of the denied name",
                    fix_resign(g_, apex_));
        } else {
          sink_.add(ErrorCode::kBadNonexistenceProof, apex_,
                    "NSEC3 records neither match nor cover the denied name",
                    fix_resign(g_, apex_));
        }
        return;
      }
      dns::Name next_closer = nx_name;
      while (next_closer.label_count() > ce_name.label_count() + 1) {
        next_closer = next_closer.parent();
      }
      const Entry* nc_cover = find_cover(next_closer);
      if (nc_cover == nullptr) {
        sink_.add(ErrorCode::kIncorrectClosestEncloserProof, apex_,
                  "no NSEC3 record covers the next-closer name " +
                      next_closer.to_string(),
                  fix_resign(g_, apex_));
        return;
      }
      const dns::Name wildcard = ce_name.child("*");
      if (find_cover(wildcard) == nullptr && find_match(wildcard) == nullptr &&
          !nc_cover->rdata->opt_out()) {
        sink_.add(ErrorCode::kBadNonexistenceProof, apex_,
                  "no NSEC3 record denies the wildcard " +
                      wildcard.to_string(),
                  fix_resign(g_, apex_));
      }
    }

    // NODATA probe: the NSEC3 matching the apex owns the type bitmap.
    for (const auto& owner : nodata.owners) {
      check_rrset_node(find_node(owner, dns::RRType::kNSEC3), all_keys_,
                       true);
      const auto* rrset = zone_.find(owner, dns::RRType::kNSEC3);
      if (rrset == nullptr) continue;
      for (const auto& rdata : rrset->rdatas()) {
        const auto* n3 = std::get_if<dns::Nsec3Rdata>(&rdata);
        if (n3 == nullptr) continue;
        auto decoded = base32hex_decode(owner.leftmost_label());
        if (!decoded || *decoded != hash_of(apex_)) continue;
        if (n3->types.contains(dns::RRType::kMX)) {
          sink_.add(ErrorCode::kIncorrectTypeBitmap, apex_,
                    "NSEC3 bitmap asserts MX exists at the apex, but the "
                    "server answered NODATA",
                    fix_resign(g_, apex_));
        }
        if (!n3->types.contains(dns::RRType::kSOA) ||
            !n3->types.contains(dns::RRType::kNS)) {
          sink_.add(ErrorCode::kIncorrectTypeBitmap, apex_,
                    "NSEC3 bitmap at the apex omits SOA/NS",
                    fix_resign(g_, apex_));
        }
      }
    }
    if (nodata.rcode == dns::RCode::kNoError && !nodata.positive &&
        nodata.owners.empty()) {
      sink_.add(ErrorCode::kMissingNonexistenceProof, apex_,
                "NODATA response carries no NSEC or NSEC3 records",
                fix_resign(g_, apex_));
    }
  }

  void check_denial_nsec(const ProbeResponse& nx, const ProbeResponse& last,
                         const ProbeResponse& nodata, const dns::Name& nx_name,
                         const dns::Name& last_name) {
    if (nx.rcode == dns::RCode::kNXDomain) {
      bool covered = false;
      for (const auto& owner : nx.owners) {
        const auto* rrset = zone_.find(owner, dns::RRType::kNSEC);
        if (rrset == nullptr) continue;
        for (const auto& rdata : rrset->rdatas()) {
          const auto* nsec = std::get_if<dns::NsecRdata>(&rdata);
          if (nsec == nullptr) continue;
          if (authserver::nsec_covers(owner, nsec->next, nx_name)) {
            covered = true;
          }
        }
      }
      if (!covered) {
        sink_.add(ErrorCode::kBadNonexistenceProof, apex_,
                  "no NSEC record covers the denied name " +
                      nx_name.to_string(),
                  fix_resign(g_, apex_));
      }
      // Wrap-around sanity via the sorts-last probe.
      for (const auto& owner : last.owners) {
        check_rrset_node(find_node(owner, dns::RRType::kNSEC), all_keys_,
                         true);
        const auto* rrset = zone_.find(owner, dns::RRType::kNSEC);
        if (rrset == nullptr) continue;
        for (const auto& rdata : rrset->rdatas()) {
          const auto* nsec = std::get_if<dns::NsecRdata>(&rdata);
          if (nsec == nullptr) continue;
          if (authserver::nsec_covers(owner, nsec->next, last_name) &&
              owner > nsec->next && nsec->next != apex_) {
            sink_.add(ErrorCode::kIncorrectLastNsec, apex_,
                      "the final NSEC record points to " +
                          nsec->next.to_string() +
                          " instead of the zone apex",
                      fix_resign(g_, apex_));
          }
        }
      }
    }
    // NODATA bitmap check at the apex.
    for (const auto& owner : nodata.owners) {
      check_rrset_node(find_node(owner, dns::RRType::kNSEC), all_keys_,
                       true);
      if (owner != apex_) continue;
      const auto* rrset = zone_.find(owner, dns::RRType::kNSEC);
      if (rrset == nullptr) continue;
      for (const auto& rdata : rrset->rdatas()) {
        const auto* nsec = std::get_if<dns::NsecRdata>(&rdata);
        if (nsec == nullptr) continue;
        if (nsec->types.contains(dns::RRType::kMX)) {
          sink_.add(ErrorCode::kIncorrectTypeBitmap, apex_,
                    "NSEC bitmap asserts MX exists at the apex, but the "
                    "server answered NODATA",
                    fix_resign(g_, apex_));
        }
        if (!nsec->types.contains(dns::RRType::kSOA) ||
            !nsec->types.contains(dns::RRType::kNS)) {
          sink_.add(ErrorCode::kIncorrectTypeBitmap, apex_,
                    "NSEC bitmap at the apex omits SOA/NS",
                    fix_resign(g_, apex_));
        }
      }
    }
    if (nodata.rcode == dns::RCode::kNoError && !nodata.positive &&
        nodata.owners.empty()) {
      sink_.add(ErrorCode::kMissingNonexistenceProof, apex_,
                "NODATA response carries no NSEC or NSEC3 records",
                fix_resign(g_, apex_));
    }
  }

  // Rule F — the validator work budget. The cost model prices the whole
  // zone's worst case; a validator enforcing the same budgets would abandon
  // the zone with kValidatorWorkBudgetExceeded (EDE 49). The hashing side
  // only applies when the iteration count is *under* the refusal cap — at
  // or above the cap a validator refuses before hashing anything.
  void check_budget() {
    if (cost_.signature_attempts > options_.budget.max_sig_validations) {
      sink_.add(ErrorCode::kValidatorWorkBudgetExceeded, apex_,
                "worst-case signature validations " +
                    std::to_string(cost_.signature_attempts) +
                    " exceed the budget of " +
                    std::to_string(options_.budget.max_sig_validations),
                fix_prune_colliding(g_, apex_));
      return;
    }
    if (g_.denial.uses_nsec3() &&
        cost_.nsec3_iterations <= options_.budget.max_nsec3_iterations &&
        cost_.negative_proof_hash_cost > options_.budget.max_hash_cost) {
      sink_.add(ErrorCode::kValidatorWorkBudgetExceeded, apex_,
                "worst-case NSEC3 hashing cost " +
                    std::to_string(cost_.negative_proof_hash_cost) +
                    " exceeds the budget of " +
                    std::to_string(options_.budget.max_hash_cost),
                fix_resign(g_, apex_, std::uint16_t{0}));
    }
  }

 public:
  void set_cost(const ValidationCost& cost) { cost_ = cost; }

 private:
  const zone::Zone& zone_;
  const TrustGraph& g_;
  const LintOptions& options_;
  dns::Name apex_;
  Sink sink_;
  std::vector<std::size_t> all_keys_;
  std::vector<std::size_t> sep_keys_;
  ValidationCost cost_;
};

}  // namespace

Report lint_zone(const zone::Zone& zone,
                 std::span<const dns::DsRdata> parent_ds,
                 const LintOptions& options) {
  Report report;
  report.apex = zone.apex();
  const TrustGraph graph = build_trust_graph(zone, parent_ds);
  report.zone_signed = graph.is_signed();
  report.cost = estimate_cost(graph);
  Linter linter(zone, graph, options, report);
  linter.set_cost(report.cost);
  linter.run();
  return report;
}

std::set<analyzer::ErrorCode> finding_codes(const Report& report) {
  std::set<analyzer::ErrorCode> codes;
  for (const auto& f : report.findings) codes.insert(f.code);
  return codes;
}

}  // namespace dfx::zonelint
