#include "analyzer/judge.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "authserver/authserver.h"
#include "crypto/algorithm.h"
#include "zone/signer.h"

namespace dfx::analyzer {

void ZoneJudge::report(ErrorCode code, std::string detail,
                       const FindingSubject& subject) {
  hooks.report(code, std::move(detail), subject);
}

KeyRefs ZoneJudge::all_keys() const {
  KeyRefs out;
  out.reserve(dnskeys.size());
  for (const auto& key : dnskeys) out.push_back(&key);
  return out;
}

void ZoneJudge::check_keys() {
  for (const auto& key : dnskeys) {
    if (!crypto::plausible_key_length(key.algorithm, key.public_key)) {
      report(ErrorCode::kBadKeyLength,
             "DNSKEY key_tag=" + std::to_string(key.key_tag()) +
                 " has an invalid key length for algorithm " +
                 std::to_string(key.algorithm),
             {.key_tag = key.key_tag()});
      note_failure();
    }
  }
  // Colliding key tags (KeyTrap): tags are only hints, so collisions are
  // legal — but every extra key sharing an RRSIG's (tag, algorithm) pair
  // multiplies the validation attempts a resolver must make. Advisory on
  // its own; the pairing blowup check in check_rrset is what bites.
  std::map<std::pair<std::uint16_t, std::uint8_t>, std::size_t> tag_count;
  for (const auto& key : dnskeys) {
    ++tag_count[{key.key_tag(), key.algorithm}];
  }
  for (const auto& [tag_alg, count] : tag_count) {
    if (count < 2) continue;
    report(ErrorCode::kCollidingKeyTags,
           std::to_string(count) + " DNSKEYs share key_tag=" +
               std::to_string(tag_alg.first) + " algorithm=" +
               std::to_string(tag_alg.second));
  }
}

void ZoneJudge::validate_ds() {
  ds_valid.assign(ds_set.size(), false);
  for (std::size_t di = 0; di < ds_set.size(); ++di) {
    const auto& ds = ds_set[di];
    const dns::DnskeyRdata* matched = nullptr;
    bool algorithm_present = false;
    bool revoked_link = false;
    std::uint16_t revoked_tag = 0;
    for (const auto& key : dnskeys) {
      if (key.algorithm != ds.algorithm) continue;
      algorithm_present = true;
      if (key.key_tag() == ds.key_tag) {
        matched = &key;
        break;
      }
      // A DS created before the key was revoked references the
      // pre-revocation tag; detect that linkage explicitly.
      if (key.is_revoked()) {
        dns::DnskeyRdata unrevoked = key;
        unrevoked.flags &= static_cast<std::uint16_t>(~0x0080);
        if (unrevoked.key_tag() == ds.key_tag) {
          revoked_link = true;
          revoked_tag = key.key_tag();
        }
      }
    }
    const std::string ds_id = "DS key_tag=" + std::to_string(ds.key_tag) +
                              " algorithm=" + std::to_string(ds.algorithm);
    const FindingSubject about_ds{.key_tag = std::nullopt, .ds = &ds};
    if (matched == nullptr) {
      if (revoked_link) {
        report(ErrorCode::kRevokedKey,
               ds_id + " is linked to a revoked DNSKEY (key_tag=" +
                   std::to_string(revoked_tag) + ")",
               {.key_tag = revoked_tag});
        report(ErrorCode::kNoSecureEntryPoint,
               ds_id + " provides no secure entry point (key revoked)");
      } else if (!algorithm_present) {
        report(ErrorCode::kMissingKskForAlgorithm,
               ds_id + " references an algorithm with no DNSKEY",
               about_ds);
      } else if (dnskeys.empty()) {
        report(ErrorCode::kMissingDnskeyForDs,
               ds_id + " has no DNSKEY RRset to match", about_ds);
      } else {
        report(ErrorCode::kMissingDnskeyForDs, ds_id + " matches no DNSKEY",
               about_ds);
      }
      continue;
    }
    if (matched->is_revoked()) {
      report(ErrorCode::kRevokedKey,
             ds_id + " references a DNSKEY with the REVOKE flag set",
             {.key_tag = matched->key_tag()});
      report(ErrorCode::kNoSecureEntryPoint,
             ds_id + " provides no secure entry point (key revoked)");
      continue;
    }
    const auto digest_type = static_cast<crypto::DigestType>(ds.digest_type);
    const Bytes expected =
        crypto::ds_digest(digest_type, apex.to_canonical_wire(),
                          dns::rdata_to_wire(dns::Rdata(*matched)));
    if (expected.empty()) continue;  // unsupported digest type: DS ignored
    if (expected != ds.digest) {
      report(ErrorCode::kInvalidDigest,
             ds_id + " digest does not match the DNSKEY", about_ds);
      continue;
    }
    sep_keys.push_back(matched);
    ds_valid[di] = true;
  }
  if (!ds_set.empty() && dnskeys.empty()) {
    report(ErrorCode::kMissingDnskeyForDs,
           "DS present at the parent but the zone has no DNSKEY RRset");
    note_failure();
  }
  if (!ds_set.empty() && sep_keys.empty()) {
    report(ErrorCode::kNoSecureEntryPoint,
           "no DS record establishes a secure entry point");
    note_failure();
  }
}

bool ZoneJudge::check_rrset(const RRsetView& view, const KeyRefs& allowed_keys,
                            bool require_signature) {
  if (!view.present) return true;  // nothing to validate
  if (view.sigs.empty()) {
    if (require_signature) {
      report(ErrorCode::kMissingSignature,
             "no RRSIG covering " + view.rrset.owner().to_string() + "/" +
                 dns::rrtype_to_string(view.rrset.type()));
      note_failure();
    }
    return !require_signature;
  }
  // KeyTrap pairing blowup: the work a validator may have to perform on
  // this RRset is the number of (RRSIG, candidate DNSKEY) pairings, not
  // the number of RRSIGs — colliding key tags multiply candidates.
  std::size_t pairings = 0;
  for (const auto& sig : view.sigs) {
    for (const auto* key : allowed_keys) {
      if (key->key_tag() == sig.key_tag && key->algorithm == sig.algorithm) {
        ++pairings;
      }
    }
  }
  if (pairings > config.sig_pairing_threshold) {
    report(ErrorCode::kExcessiveSignatureValidations,
           "RRset " + view.rrset.owner().to_string() + "/" +
               dns::rrtype_to_string(view.rrset.type()) + " demands " +
               std::to_string(pairings) +
               " candidate signature validations (threshold " +
               std::to_string(config.sig_pairing_threshold) + ")");
    note_failure();
  }
  bool any_valid = false;
  for (const auto& sig : view.sigs) {
    bool sig_ok = true;
    const std::string sig_id =
        "RRSIG " + view.rrset.owner().to_string() + "/" +
        dns::rrtype_to_string(view.rrset.type()) +
        " key_tag=" + std::to_string(sig.key_tag);
    if (now && sig.expiration < *now) {
      report(ErrorCode::kExpiredSignature,
             sig_id + " expired at " + format_dnssec_time(sig.expiration));
      sig_ok = false;
    }
    if (now && sig.inception > *now) {
      report(ErrorCode::kNotYetValidSignature,
             sig_id + " not valid before " +
                 format_dnssec_time(sig.inception));
      sig_ok = false;
    }
    if (sig.signer != apex) {
      report(ErrorCode::kIncorrectSigner,
             sig_id + " signer " + sig.signer.to_string() +
                 " is not the zone apex");
      sig_ok = false;
    }
    // RFC 4034 §3.1.3: labels excludes a leading "*"; a count *below* the
    // owner's marks a wildcard-synthesized answer, a count above it is
    // plainly invalid.
    const std::size_t expected_labels =
        view.rrset.owner().label_count() -
        (view.rrset.owner().leftmost_label() == "*" ? 1 : 0);
    dns::Name signing_owner = view.rrset.owner();
    if (sig.labels > expected_labels) {
      report(ErrorCode::kIncorrectSignatureLabels,
             sig_id + " labels field " + std::to_string(sig.labels) +
                 " exceeds the owner's label count " +
                 std::to_string(expected_labels));
      sig_ok = false;
    } else if (sig.labels < expected_labels) {
      // Wildcard expansion: rebuild the source of synthesis and verify
      // against it.
      dns::Name closest = view.rrset.owner();
      while (closest.label_count() > sig.labels) closest = closest.parent();
      signing_owner = closest.child("*");
    }
    if (!crypto::plausible_signature_length(sig.algorithm,
                                            sig.signature.size())) {
      report(ErrorCode::kBadSignatureLength,
             sig_id + " has an implausible signature length " +
                 std::to_string(sig.signature.size()));
      sig_ok = false;
    }
    if (sig.original_ttl < view.rrset.ttl()) {
      report(ErrorCode::kOriginalTtlExceedsRrsetTtl,
             sig_id + " original TTL " + std::to_string(sig.original_ttl) +
                 " is below the served RRset TTL " +
                 std::to_string(view.rrset.ttl()));
      // warning-level: does not invalidate the signature
    }
    if (now && sig.expiration > *now &&
        static_cast<UnixTime>(view.rrset.ttl()) > sig.expiration - *now) {
      report(ErrorCode::kTtlBeyondExpiration,
             sig_id + " allows caching beyond signature expiration");
    }
    // Find the candidate signing keys among the allowed keys. Key tags
    // are not unique identifiers (RFC 4034 App. B), so a validator must
    // try *every* key matching the RRSIG's (tag, algorithm) pair — the
    // lever KeyTrap pulls. Each attempt goes through the verify hook.
    KeyRefs candidates;
    for (const auto* key : allowed_keys) {
      if (key->key_tag() == sig.key_tag && key->algorithm == sig.algorithm) {
        candidates.push_back(key);
      }
    }
    if (candidates.empty()) {
      bool known_elsewhere = std::any_of(
          dnskeys.begin(), dnskeys.end(), [&](const dns::DnskeyRdata& k) {
            return k.key_tag() == sig.key_tag && k.algorithm == sig.algorithm;
          });
      if (!known_elsewhere) {
        report(ErrorCode::kInvalidSignature,
               sig_id + " was made by a key not in the DNSKEY RRset");
      }
      continue;
    }
    if (sig_ok && hooks.verify) {
      // For wildcard expansions the signed owner differs from the served
      // owner; verify against the reconstructed source of synthesis.
      std::optional<dns::RRset> source;
      if (signing_owner != view.rrset.owner()) {
        source.emplace(signing_owner, view.rrset.type(), view.rrset.ttl());
        for (const auto& rdata : view.rrset.rdatas()) source->add(rdata);
      }
      const Bytes signed_data =
          zone::rrsig_signed_data(source ? *source : view.rrset, sig);
      bool verified = false;
      bool abandoned = false;
      for (const auto* signer : candidates) {
        const std::optional<bool> verdict =
            hooks.verify(signed_data, sig, *signer);
        if (!verdict) {
          abandoned = true;
          break;
        }
        if (*verdict) {
          verified = true;
          break;
        }
      }
      if (!verified) {
        // Only claim the signature is invalid when every candidate was
        // actually tried; an abandoned check is a budget failure, not a
        // crypto one.
        if (!abandoned) {
          report(ErrorCode::kInvalidSignature,
                 sig_id + " failed cryptographic verification");
        }
        sig_ok = false;
      }
    }
    any_valid = any_valid || sig_ok;
  }
  if (!any_valid) note_failure();
  return any_valid;
}

bool ZoneJudge::check_server(const ServerProbe& sp,
                             const KeyRefs& dnskey_signers,
                             std::vector<RRsetView>& data_views) {
  bool secure = true;
  const KeyRefs keys = all_keys();
  const auto dnskey_view =
      extract(sp.dnskey.answers, apex, dns::RRType::kDNSKEY);
  if (!check_rrset(dnskey_view, dnskey_signers, true)) secure = false;

  for (auto [section, type] :
       {std::pair{&sp.soa.answers, dns::RRType::kSOA},
        std::pair{&sp.ns.answers, dns::RRType::kNS},
        std::pair{&sp.apex_a.answers, dns::RRType::kA}}) {
    auto view = extract(*section, apex, type);
    if (!view.present) continue;
    if (!check_rrset(view, keys, true)) secure = false;
    data_views.push_back(std::move(view));
  }

  // A wildcard may turn the NXDOMAIN probe into a synthesized positive
  // answer; validate it (the labels-field logic inside check_rrset
  // reconstructs the source of synthesis) and require the accompanying
  // next-closer proof (RFC 4035 §3.1.3.3).
  const auto wc_view =
      extract(sp.nxdomain.answers, nx_probe_name(apex), dns::RRType::kA);
  if (wc_view.present) {
    if (!check_rrset(wc_view, keys, true)) secure = false;
    if (sp.nxdomain.negative_proofs().empty()) {
      report(ErrorCode::kMissingNonexistenceProof,
             "wildcard-synthesized answer lacks the proof that the query "
             "name itself does not exist");
      secure = false;
    }
  }

  // Negative responses.
  DenialHooks denial_hooks{
      .report = [this](ErrorCode code,
                       std::string detail) { report(code, std::move(detail)); },
      .check_proof =
          [&](const RRsetView& view) { return check_rrset(view, keys, true); },
      .hash = hooks.hash};
  if (!judge_denial(sp, apex, config, denial_hooks)) secure = false;
  return secure;
}

void ZoneJudge::check_algorithm_completeness(
    std::span<const ServerProbe> servers,
    const std::vector<RRsetView>& data_views) {
  std::set<std::uint8_t> dnskey_algorithms;
  for (const auto& key : dnskeys) {
    if (key.is_revoked()) continue;
    dnskey_algorithms.insert(key.algorithm);
  }
  for (const auto& view : data_views) {
    if (!view.present || view.sigs.empty()) continue;
    std::set<std::uint8_t> sig_algorithms;
    for (const auto& sig : view.sigs) sig_algorithms.insert(sig.algorithm);
    for (std::uint8_t alg : dnskey_algorithms) {
      if (!sig_algorithms.contains(alg)) {
        report(ErrorCode::kIncompleteAlgorithmSetup,
               "RRset " + view.rrset.owner().to_string() + "/" +
                   dns::rrtype_to_string(view.rrset.type()) +
                   " lacks an RRSIG with algorithm " + std::to_string(alg));
      }
    }
  }
  // DS algorithms must sign the DNSKEY RRset.
  std::set<std::uint8_t> ds_algorithms;
  for (const auto& ds : ds_set) ds_algorithms.insert(ds.algorithm);
  for (const auto& sp : servers) {
    if (!sp.reachable) continue;
    const auto view = extract(sp.dnskey.answers, apex, dns::RRType::kDNSKEY);
    std::set<std::uint8_t> sig_algorithms;
    for (const auto& sig : view.sigs) sig_algorithms.insert(sig.algorithm);
    for (std::uint8_t alg : ds_algorithms) {
      if (!sig_algorithms.contains(alg) && view.present) {
        report(ErrorCode::kMissingSignatureForAlgorithm,
               "no RRSIG with DS algorithm " + std::to_string(alg) +
                   " covers the DNSKEY RRset");
      }
    }
    break;  // one representative server suffices for this zone-level check
  }
}

}  // namespace dfx::analyzer
