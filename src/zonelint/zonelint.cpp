#include "zonelint/zonelint.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "analyzer/denial.h"
#include "authserver/authserver.h"
#include "crypto/algorithm.h"
#include "dnscore/rr.h"
#include "util/codec.h"
#include "zone/nsec3.h"
#include "zonelint/admission.h"

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
    for (const auto& rdata : g.denial.nsec3) {
      if (rdata.opt_out()) {
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

  // Rule E — denial of existence. The four probes grok puts to one server
  // (nx A, sorts-last A, apex MX, apex NSEC3PARAM) are put to
  // `authserver::answer`, and grok's own judge_denial reads the answers.
  // Judging the whole chain in the zone file would diverge: a
  // salt-tampered NSEC3 ring always yields *some* cover zone-wide,
  // flipping kBadNonexistenceProof into kInconsistentAncestorForNxdomain.
  void check_denial() {
    const authserver::DenialIndex denial(zone_);
    const auto ask = [&](const dns::Name& qname, dns::RRType qtype) {
      return authserver::answer(zone_, denial, qname, qtype);
    };
    analyzer::ServerProbe sp;
    sp.nxdomain = ask(analyzer::nx_probe_name(apex_), dns::RRType::kA);
    sp.nxdomain_last = ask(analyzer::last_probe_name(apex_), dns::RRType::kA);
    sp.nodata = ask(apex_, dns::RRType::kMX);
    sp.nsec3param = ask(apex_, dns::RRType::kNSEC3PARAM);

    // A wildcard-synthesized positive answer must be signed and carry the
    // next-closer proof (RFC 4035 §3.1.3.3).
    if (!sp.nxdomain.answers.empty()) {
      check_rrset_node(find_node(apex_.child("*"), dns::RRType::kA),
                       all_keys_, true);
      if (sp.nxdomain.negative_proofs().empty()) {
        sink_.add(ErrorCode::kMissingNonexistenceProof, apex_,
                  "wildcard-synthesized answer lacks the proof that the "
                  "query name itself does not exist",
                  fix_resign(g_, apex_));
      }
    }

    analyzer::DenialHooks hooks{
        .report =
            [&](ErrorCode code, std::string detail) {
              const bool iterations =
                  code == ErrorCode::kNonzeroIterationCount ||
                  code == ErrorCode::kExcessiveNsec3Iterations;
              sink_.add(code, apex_, std::move(detail),
                        iterations ? fix_resign(g_, apex_, std::uint16_t{0})
                                   : fix_resign(g_, apex_));
            },
        // Rule C's structural checks over the served proof RRset.
        .check_proof =
            [&](const analyzer::RRsetView& view) {
              check_rrset_node(
                  find_node(view.rrset.owner(), view.rrset.type()),
                  all_keys_, true);
              return true;
            },
        .hash = [](const dns::Name& name, const Bytes& salt,
                   std::uint16_t iterations) -> std::optional<Bytes> {
          return zone::nsec3_hash(name, salt, iterations);
        }};
    // The verdict is a trust state, which the lint does not predict.
    (void)analyzer::judge_denial(sp, apex_, options_.budget, hooks);
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
  report.cost = admission_cost_scan(zone);
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
