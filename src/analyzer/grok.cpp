#include "analyzer/grok.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "analyzer/denial.h"
#include "util/codec.h"
#include "util/metrics.h"
#include "zone/nsec3.h"
#include "zone/signer.h"

namespace dfx::analyzer {
namespace {

std::size_t observed_key_bits(const dns::DnskeyRdata& key) {
  const auto info = crypto::algorithm_info(key.algorithm);
  if (info && info->rsa_family) {
    crypto::RsaPublicKey pub;
    if (crypto::RsaPublicKey::decode(key.public_key, pub)) {
      return pub.n.bit_length();
    }
    return key.public_key.size() * 8;
  }
  if (info) return info->default_key_bits;
  return key.public_key.size() * 8;
}

/// One zone's reports in the order they are made, each (code, zone) pair
/// once (ErrorInstance's equality ignores the detail).
class ErrorSink {
 public:
  void add(ErrorCode code, const dns::Name& zone, std::string detail) {
    ErrorInstance e{code, zone, std::move(detail)};
    if (std::find(events_.begin(), events_.end(), e) != events_.end()) return;
    events_.push_back(std::move(e));
  }

  std::vector<ErrorInstance> events_;
};

/// Validation context for one zone in the chain.
struct ZoneChecker {
  const ZoneProbe& zp;
  const GrokConfig& config;
  UnixTime now;
  ErrorSink& sink;

  // Filled during checking.
  std::vector<dns::DnskeyRdata> dnskeys{};  // union across servers
  std::vector<dns::DsRdata> ds_set{};       // union across parent servers
  std::vector<bool> ds_valid{};             // parallel to ds_set
  bool ds_absence_proven = false;
  std::vector<const dns::DnskeyRdata*> sep_keys{};  // DS-validated keys
  bool any_validation_failure = false;

  // KeyTrap work accounting (per zone; see GrokConfig).
  std::size_t sig_validations_spent = 0;
  std::size_t hash_cost_spent = 0;
  bool budget_exhausted = false;

  /// One crypto verdict per (signed data, signature, algorithm, public
  /// key) in this zone: every server serves the same RRsets, and the
  /// negative probes share proof records. The memo only skips repeated
  /// crypto; each attempt is still charged (charge_sig_validation).
  using VerdictKey = std::tuple<Bytes, Bytes, std::uint8_t, Bytes>;
  std::map<VerdictKey, bool> verdicts{};

  const dns::Name& apex() const { return zp.apex; }

  void note_failure() { any_validation_failure = true; }

  void note_budget_exhausted(const std::string& what) {
    budget_exhausted = true;
    sink.add(ErrorCode::kValidatorWorkBudgetExceeded, apex(), what);
    note_failure();
  }

  /// Charge one signature-verification attempt; false once the budget is
  /// gone (the caller must skip the crypto).
  bool charge_sig_validation() {
    if (budget_exhausted) return false;
    if (sig_validations_spent >= config.max_sig_validations) {
      note_budget_exhausted(
          "signature-validation budget of " +
          std::to_string(config.max_sig_validations) +
          " attempts exhausted while validating the zone");
      return false;
    }
    ++sig_validations_spent;
    return true;
  }

  /// Does `sig` verify over `signed_data` with `key`? Runs the crypto the
  /// first time this zone asks, and answers from `verdicts` afterwards.
  [[nodiscard]] bool verify(const Bytes& signed_data,
                            const dns::RrsigRdata& sig,
                            const dns::DnskeyRdata& key) {
    auto [it, fresh] = verdicts.try_emplace(
        VerdictKey{signed_data, sig.signature, key.algorithm, key.public_key},
        false);
    if (fresh) {
      it->second = crypto::verify_message(
          static_cast<crypto::DnssecAlgorithm>(key.algorithm),
          key.public_key, signed_data, sig.signature);
    }
    return it->second;
  }

  /// Charge `cost` SHA-1 applications of NSEC3 hashing; false once the
  /// budget is gone.
  bool charge_hash_cost(std::size_t cost) {
    if (budget_exhausted) return false;
    if (hash_cost_spent + cost > config.max_hash_cost) {
      note_budget_exhausted(
          "NSEC3 hashing budget of " + std::to_string(config.max_hash_cost) +
          " SHA-1 applications exhausted while validating the zone");
      return false;
    }
    hash_cost_spent += cost;
    return true;
  }

  /// Would `sigs` more signature-validation attempts and `hash_cost`
  /// more SHA-1 applications all be charged without exhausting a budget?
  bool charges_fit(std::size_t sigs, std::size_t hash_cost) const {
    return !budget_exhausted &&
           sig_validations_spent + sigs <= config.max_sig_validations &&
           hash_cost_spent + hash_cost <= config.max_hash_cost;
  }

  // ---- DNSKEY gathering & key-level checks -----------------------------

  void gather_dnskeys() {
    std::set<Bytes> key_wires;  // of `dnskeys`, which keeps first-seen order
    std::vector<std::set<Bytes>> per_server;
    for (const auto& sp : zp.servers) {
      // A mirror's set is its original's, already gathered.
      if (!sp.reachable || sp.mirror_of) continue;
      std::set<Bytes> wires;
      const auto view =
          extract(sp.dnskey.answers, apex(), dns::RRType::kDNSKEY);
      for (const auto& rdata : view.rrset.rdatas()) {
        Bytes wire = dns::rdata_to_wire(rdata);
        const auto* key = std::get_if<dns::DnskeyRdata>(&rdata);
        if (key != nullptr && key_wires.insert(wire).second) {
          dnskeys.push_back(*key);
        }
        wires.insert(std::move(wire));
      }
      per_server.push_back(std::move(wires));
    }
    // Inconsistency across servers.
    for (std::size_t i = 1; i < per_server.size(); ++i) {
      if (per_server[i] != per_server[0]) {
        sink.add(ErrorCode::kInconsistentDnskeyBetweenServers, apex(),
                 "DNSKEY RRset differs between authoritative servers");
        note_failure();
        break;
      }
    }
    // Key-level checks.
    for (const auto& key : dnskeys) {
      if (!crypto::plausible_key_length(key.algorithm, key.public_key)) {
        sink.add(ErrorCode::kBadKeyLength, apex(),
                 "DNSKEY key_tag=" + std::to_string(key.key_tag()) +
                     " has an invalid key length for algorithm " +
                     std::to_string(key.algorithm));
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
      sink.add(ErrorCode::kCollidingKeyTags, apex(),
               std::to_string(count) + " DNSKEYs share key_tag=" +
                   std::to_string(tag_alg.first) + " algorithm=" +
                   std::to_string(tag_alg.second));
    }
  }

  void gather_ds() {
    std::set<Bytes> seen;
    for (const auto& result : zp.parent_ds) {
      const auto view = extract(result.answers, apex(), dns::RRType::kDS);
      for (const auto& rdata : view.rrset.rdatas()) {
        if (!seen.insert(dns::rdata_to_wire(rdata)).second) continue;
        const auto* ds = std::get_if<dns::DsRdata>(&rdata);
        if (ds != nullptr) ds_set.push_back(*ds);
      }
      if (!view.present &&
          (result.rcode == dns::RCode::kNoError ||
           result.rcode == dns::RCode::kNXDomain)) {
        // Negative answer for DS; proof quality checked by caller when
        // the parent is signed.
        ds_absence_proven =
            ds_absence_proven || !result.negative_proofs().empty();
      }
    }
  }

  // ---- DS ↔ DNSKEY linkage ---------------------------------------------

  void validate_ds() {
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
      if (matched == nullptr) {
        if (revoked_link) {
          sink.add(ErrorCode::kRevokedKey, apex(),
                   ds_id + " is linked to a revoked DNSKEY (key_tag=" +
                       std::to_string(revoked_tag) + ")");
          sink.add(ErrorCode::kNoSecureEntryPoint, apex(),
                   ds_id + " provides no secure entry point (key revoked)");
        } else if (!algorithm_present) {
          sink.add(ErrorCode::kMissingKskForAlgorithm, apex(),
                   ds_id + " references an algorithm with no DNSKEY");
        } else if (dnskeys.empty()) {
          sink.add(ErrorCode::kMissingDnskeyForDs, apex(),
                   ds_id + " has no DNSKEY RRset to match");
        } else {
          sink.add(ErrorCode::kMissingDnskeyForDs, apex(),
                   ds_id + " matches no DNSKEY");
        }
        continue;
      }
      if (matched->is_revoked()) {
        sink.add(ErrorCode::kRevokedKey, apex(),
                 ds_id + " references a DNSKEY with the REVOKE flag set");
        sink.add(ErrorCode::kNoSecureEntryPoint, apex(),
                 ds_id + " provides no secure entry point (key revoked)");
        continue;
      }
      const auto digest_type =
          static_cast<crypto::DigestType>(ds.digest_type);
      const Bytes expected = crypto::ds_digest(
          digest_type, apex().to_canonical_wire(),
          dns::rdata_to_wire(dns::Rdata(*matched)));
      if (expected.empty()) continue;  // unsupported digest type: DS ignored
      if (expected != ds.digest) {
        sink.add(ErrorCode::kInvalidDigest, apex(),
                 ds_id + " digest does not match the DNSKEY");
        continue;
      }
      sep_keys.push_back(matched);
      ds_valid[di] = true;
    }
    if (!ds_set.empty() && dnskeys.empty()) {
      sink.add(ErrorCode::kMissingDnskeyForDs, apex(),
               "DS present at the parent but the zone has no DNSKEY RRset");
      note_failure();
    }
    if (!ds_set.empty() && sep_keys.empty()) {
      sink.add(ErrorCode::kNoSecureEntryPoint, apex(),
               "no DS record establishes a secure entry point");
      note_failure();
    }
  }

  // ---- RRSIG validation --------------------------------------------------

  /// Validate the signatures over one RRset. `allowed_keys` is the key set
  /// a valid path may use. Returns true if at least one signature fully
  /// validates. Emits per-signature anomalies.
  bool check_rrset(const RRsetView& view,
                   const std::vector<const dns::DnskeyRdata*>& allowed_keys,
                   bool require_signature) {
    if (!view.present) return true;  // nothing to validate
    if (view.sigs.empty()) {
      if (require_signature) {
        sink.add(ErrorCode::kMissingSignature, apex(),
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
        if (key->key_tag() == sig.key_tag &&
            key->algorithm == sig.algorithm) {
          ++pairings;
        }
      }
    }
    if (pairings > config.sig_pairing_threshold) {
      sink.add(ErrorCode::kExcessiveSignatureValidations, apex(),
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
      if (sig.expiration < now) {
        sink.add(ErrorCode::kExpiredSignature, apex(),
                 sig_id + " expired at " + format_dnssec_time(sig.expiration));
        sig_ok = false;
      }
      if (sig.inception > now) {
        sink.add(ErrorCode::kNotYetValidSignature, apex(),
                 sig_id + " not valid before " +
                     format_dnssec_time(sig.inception));
        sig_ok = false;
      }
      if (sig.signer != apex()) {
        sink.add(ErrorCode::kIncorrectSigner, apex(),
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
        sink.add(ErrorCode::kIncorrectSignatureLabels, apex(),
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
        sink.add(ErrorCode::kBadSignatureLength, apex(),
                 sig_id + " has an implausible signature length " +
                     std::to_string(sig.signature.size()));
        sig_ok = false;
      }
      if (sig.original_ttl < view.rrset.ttl()) {
        sink.add(ErrorCode::kOriginalTtlExceedsRrsetTtl, apex(),
                 sig_id + " original TTL " +
                     std::to_string(sig.original_ttl) +
                     " is below the served RRset TTL " +
                     std::to_string(view.rrset.ttl()));
        // warning-level: does not invalidate the signature
      }
      if (sig.expiration > now &&
          static_cast<UnixTime>(view.rrset.ttl()) > sig.expiration - now) {
        sink.add(ErrorCode::kTtlBeyondExpiration, apex(),
                 sig_id + " allows caching beyond signature expiration");
      }
      // Find the candidate signing keys among the allowed keys. Key tags
      // are not unique identifiers (RFC 4034 App. B), so a validator must
      // try *every* key matching the RRSIG's (tag, algorithm) pair — the
      // lever KeyTrap pulls. Each attempt is charged against the budget.
      std::vector<const dns::DnskeyRdata*> candidates;
      for (const auto* key : allowed_keys) {
        if (key->key_tag() == sig.key_tag &&
            key->algorithm == sig.algorithm) {
          candidates.push_back(key);
        }
      }
      if (candidates.empty()) {
        bool known_elsewhere = std::any_of(
            dnskeys.begin(), dnskeys.end(), [&](const dns::DnskeyRdata& k) {
              return k.key_tag() == sig.key_tag &&
                     k.algorithm == sig.algorithm;
            });
        if (!known_elsewhere) {
          sink.add(ErrorCode::kInvalidSignature, apex(),
                   sig_id + " was made by a key not in the DNSKEY RRset");
        }
        continue;
      }
      if (sig_ok) {
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
          if (!charge_sig_validation()) {
            abandoned = true;
            break;
          }
          if (verify(signed_data, sig, *signer)) {
            verified = true;
            break;
          }
        }
        if (!verified) {
          // Only claim the signature is invalid when every candidate was
          // actually tried; an abandoned check is a budget failure, not a
          // crypto one.
          if (!abandoned) {
            sink.add(ErrorCode::kInvalidSignature, apex(),
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

  /// Per-zone RFC 4035 algorithm-completeness check over the data RRsets.
  void check_algorithm_completeness(
      const std::vector<const RRsetView*>& signed_sets) {
    std::set<std::uint8_t> dnskey_algorithms;
    for (const auto& key : dnskeys) {
      if (key.is_revoked()) continue;
      dnskey_algorithms.insert(key.algorithm);
    }
    for (const auto* view : signed_sets) {
      if (!view->present || view->sigs.empty()) continue;
      std::set<std::uint8_t> sig_algorithms;
      for (const auto& sig : view->sigs) sig_algorithms.insert(sig.algorithm);
      for (std::uint8_t alg : dnskey_algorithms) {
        if (!sig_algorithms.contains(alg)) {
          sink.add(ErrorCode::kIncompleteAlgorithmSetup, apex(),
                   "RRset " + view->rrset.owner().to_string() + "/" +
                       dns::rrtype_to_string(view->rrset.type()) +
                       " lacks an RRSIG with algorithm " +
                       std::to_string(alg));
        }
      }
    }
    // DS algorithms must sign the DNSKEY RRset.
    std::set<std::uint8_t> ds_algorithms;
    for (const auto& ds : ds_set) ds_algorithms.insert(ds.algorithm);
    for (const auto& sp : zp.servers) {
      if (!sp.reachable) continue;
      const auto view =
          extract(sp.dnskey.answers, apex(), dns::RRType::kDNSKEY);
      std::set<std::uint8_t> sig_algorithms;
      for (const auto& sig : view.sigs) sig_algorithms.insert(sig.algorithm);
      for (std::uint8_t alg : ds_algorithms) {
        if (!sig_algorithms.contains(alg) && view.present) {
          sink.add(ErrorCode::kMissingSignatureForAlgorithm, apex(),
                   "no RRSIG with DS algorithm " + std::to_string(alg) +
                       " covers the DNSKEY RRset");
        }
      }
      break;  // one representative server suffices for this zone-level check
    }
  }
};

/// Extract the zone meta-parameters ZReplicator mirrors (Fig. 7 step 2).
ZoneMeta extract_meta(const ZoneProbe& zp, const ZoneChecker& checker) {
  ZoneMeta meta;
  meta.apex = zp.apex;
  meta.server_count = static_cast<int>(zp.servers.size());
  for (const auto& key : checker.dnskeys) {
    KeyMeta km;
    km.flags = key.flags;
    km.algorithm = key.algorithm;
    km.key_tag = key.key_tag();
    km.key_bits = observed_key_bits(key);
    km.length_plausible =
        crypto::plausible_key_length(key.algorithm, key.public_key);
    meta.keys.push_back(km);
  }
  for (std::size_t di = 0; di < checker.ds_set.size(); ++di) {
    const auto& ds = checker.ds_set[di];
    DsMeta dm;
    dm.key_tag = ds.key_tag;
    dm.algorithm = ds.algorithm;
    dm.digest_type = ds.digest_type;
    dm.digest_hex = hex_encode(ds.digest);
    dm.matches_dnskey = std::any_of(
        checker.dnskeys.begin(), checker.dnskeys.end(),
        [&](const dns::DnskeyRdata& k) {
          return k.key_tag() == ds.key_tag && k.algorithm == ds.algorithm;
        });
    dm.valid = di < checker.ds_valid.size() && checker.ds_valid[di];
    meta.ds_records.push_back(dm);
  }
  // Denial mechanism from the observed proofs.
  for (const auto& sp : zp.servers) {
    if (!sp.reachable) continue;
    const auto nsec3 = extract_proofs(sp.nxdomain, dns::RRType::kNSEC3);
    if (!nsec3.empty()) {
      meta.uses_nsec3 = true;
      for (const auto& rdata : nsec3.front().rrset.rdatas()) {
        const auto* n3 = std::get_if<dns::Nsec3Rdata>(&rdata);
        if (n3 != nullptr) {
          meta.nsec3_iterations = n3->iterations;
          meta.nsec3_salt_hex = hex_encode(n3->salt);
          meta.nsec3_opt_out = n3->opt_out();
          break;
        }
      }
    }
    const auto soa = extract(sp.soa.answers, zp.apex, dns::RRType::kSOA);
    if (soa.present) meta.max_ttl = soa.rrset.ttl();
    break;
  }
  return meta;
}

}  // namespace

bool ZoneVerdict::same_as(const ZoneVerdict& other) const {
  const auto same_event = [](const ErrorInstance& a, const ErrorInstance& b) {
    return a == b && a.detail == b.detail;
  };
  return std::equal(events.begin(), events.end(), other.events.begin(),
                    other.events.end(), same_event) &&
         state == other.state && stop == other.stop &&
         target_meta == other.target_meta &&
         sig_validation_attempts == other.sig_validation_attempts &&
         sig_verifications == other.sig_verifications;
}

ZoneVerdict grok_zone(const ZoneProbe& zp, TrustState incoming,
                      const dns::Name* parent_apex, UnixTime now,
                      const GrokConfig& config, bool is_target) {
  ZoneVerdict verdict;
  verdict.state = incoming;
  ErrorSink sink;
  const auto finish = [&] {
    verdict.events = std::move(sink.events_);
    return std::move(verdict);
  };

  // Lameness: every server unreachable.
  const bool all_lame = std::all_of(
      zp.servers.begin(), zp.servers.end(),
      [](const ServerProbe& sp) { return !sp.reachable; });
  if (zp.servers.empty() || all_lame) {
    sink.add(ErrorCode::kLameDelegation, zp.apex,
             "no authoritative server for the zone responds");
    verdict.stop = ZoneVerdict::Stop::kLame;
    return finish();
  }

  // Delegation completeness: the parent must publish NS for the child.
  if (parent_apex != nullptr) {
    bool parent_has_ns = false;
    for (const auto& result : zp.parent_ns) {
      const auto view = extract(result.authorities, zp.apex, dns::RRType::kNS);
      const auto direct = extract(result.answers, zp.apex, dns::RRType::kNS);
      if (view.present || direct.present) {
        parent_has_ns = true;
        break;
      }
    }
    if (!parent_has_ns) {
      sink.add(ErrorCode::kMissingNsInParent, zp.apex,
               "the parent zone has no NS records for this delegation");
      verdict.stop = ZoneVerdict::Stop::kIncomplete;
      return finish();
    }
  }

  ZoneChecker checker{zp, config, now, sink};
  checker.gather_dnskeys();
  if (parent_apex != nullptr) checker.gather_ds();

  const bool zone_signed = !checker.dnskeys.empty();

  // Trust-state transition at the delegation.
  TrustState zone_state = incoming;
  if (incoming == TrustState::kSecure && parent_apex != nullptr) {
    if (checker.ds_set.empty()) {
      // Insecure delegation; the proof of DS absence must be present.
      // (Attribute a bad proof to the *parent* zone: its NSEC(3) chain.)
      if (!checker.ds_absence_proven && zone_signed) {
        sink.add(ErrorCode::kBadNonexistenceProof, *parent_apex,
                 "the parent provides no valid proof of DS absence for " +
                     zp.apex.to_string());
        zone_state = TrustState::kBogus;

      } else {
        zone_state = TrustState::kInsecure;
      }
    } else {
      checker.validate_ds();
      if (checker.sep_keys.empty()) {
        zone_state = TrustState::kBogus;
      }
    }
  } else if (parent_apex == nullptr && !zone_signed) {
    zone_state = TrustState::kInsecure;
  }

  if (zone_signed) {
    // Validate the DNSKEY RRset per server.
    std::vector<const dns::DnskeyRdata*> dnskey_signers;
    if (parent_apex == nullptr || checker.ds_set.empty() ||
        incoming != TrustState::kSecure) {
      // Trust-anchor zone, island of trust, or a signed zone below an
      // insecure cut: there is no DS-anchored SEP, so internal
      // consistency is checked against the zone's own key set.
      for (const auto& key : checker.dnskeys) {
        dnskey_signers.push_back(&key);
      }
    } else {
      dnskey_signers = checker.sep_keys;
    }
    std::vector<const dns::DnskeyRdata*> all_keys;
    for (const auto& key : checker.dnskeys) all_keys.push_back(&key);

    // Every NSEC3 hash costs iterations + 1 SHA-1 applications, charged
    // against the zone's hashing budget.
    DenialHooks denial_hooks{
        .report =
            [&](ErrorCode code, std::string detail) {
              sink.add(code, zp.apex, std::move(detail));
            },
        .check_proof =
            [&](const RRsetView& view) {
              return checker.check_rrset(view, all_keys, true);
            },
        .hash = [&](const dns::Name& name, const Bytes& salt,
                    std::uint16_t iterations) -> std::optional<Bytes> {
          if (!checker.charge_hash_cost(
                  static_cast<std::size_t>(iterations) + 1)) {
            return std::nullopt;
          }
          return zone::nsec3_hash(name, salt, iterations);
        }};

    std::vector<RRsetView> views_storage;
    // data_views keeps pointers into views_storage: size it once so the
    // buffer never reallocates.
    views_storage.reserve(zp.servers.size() * 4);
    std::vector<const RRsetView*> data_views;
    // What each server's pass below charged, once it ran in full. A
    // mirror's answers are a copy of an earlier server's, so its pass
    // could only repeat that pass: events are kept once per (code, zone),
    // no detail names a server, and the crypto verdicts are memoized. It
    // is skipped when the repeated charges would all be granted; they are
    // charged as the pass would have charged them.
    std::vector<std::optional<std::pair<std::size_t, std::size_t>>> charged(
        zp.servers.size());
    for (std::size_t si = 0; si < zp.servers.size(); ++si) {
      const ServerProbe& sp = zp.servers[si];
      if (!sp.reachable) continue;
      if (sp.mirror_of && charged[*sp.mirror_of]) {
        const auto [sigs, hash_cost] = *charged[*sp.mirror_of];
        if (checker.charges_fit(sigs, hash_cost)) {
          checker.sig_validations_spent += sigs;
          checker.hash_cost_spent += hash_cost;
          ++verdict.mirrored_servers;
          continue;
        }
      }
      const std::size_t sigs_before = checker.sig_validations_spent;
      const std::size_t hash_before = checker.hash_cost_spent;
      const auto dnskey_view =
          extract(sp.dnskey.answers, zp.apex, dns::RRType::kDNSKEY);
      const bool dnskey_ok =
          checker.check_rrset(dnskey_view, dnskey_signers, true);
      if (!dnskey_ok) zone_state = TrustState::kBogus;

      for (auto [section, owner, type] :
           {std::tuple{&sp.soa.answers, zp.apex, dns::RRType::kSOA},
            std::tuple{&sp.ns.answers, zp.apex, dns::RRType::kNS},
            std::tuple{&sp.apex_a.answers, zp.apex, dns::RRType::kA}}) {
        views_storage.push_back(extract(*section, owner, type));
        auto& view = views_storage.back();  // dfx-lint: allow(unchecked-front-back): just pushed
        if (!view.present) continue;
        const bool ok = checker.check_rrset(view, all_keys, true);
        if (!ok) zone_state = TrustState::kBogus;
        data_views.push_back(&view);
      }

      // A wildcard may turn the NXDOMAIN probe into a synthesized
      // positive answer; validate it (the labels-field logic inside
      // check_rrset reconstructs the source of synthesis) and require
      // the accompanying next-closer proof (RFC 4035 §3.1.3.3).
      views_storage.push_back(extract(sp.nxdomain.answers,
                                      nx_probe_name(zp.apex),
                                      dns::RRType::kA));
      {
        auto& wc_view = views_storage.back();  // dfx-lint: allow(unchecked-front-back): just pushed
        if (wc_view.present) {
          if (!checker.check_rrset(wc_view, all_keys, true)) {
            zone_state = TrustState::kBogus;
          }
          if (sp.nxdomain.negative_proofs().empty()) {
            sink.add(ErrorCode::kMissingNonexistenceProof, zp.apex,
                     "wildcard-synthesized answer lacks the proof that "
                     "the query name itself does not exist");
            zone_state = TrustState::kBogus;
          }
        }
      }

      // Negative responses.
      if (!judge_denial(sp, zp.apex, config, denial_hooks)) {
        zone_state = TrustState::kBogus;
      }
      charged[si] = {checker.sig_validations_spent - sigs_before,
                     checker.hash_cost_spent - hash_before};
    }
    checker.check_algorithm_completeness(data_views);
    if (checker.any_validation_failure && zone_state == TrustState::kSecure) {
      zone_state = TrustState::kBogus;
    }
  }

  // Attempts charged vs crypto actually run (one per memo entry).
  verdict.sig_validation_attempts = checker.sig_validations_spent;
  verdict.sig_verifications = checker.verdicts.size();

  if (is_target) verdict.target_meta = extract_meta(zp, checker);
  verdict.state = zone_state;
  if (zone_state == TrustState::kBogus && !zone_signed &&
      checker.ds_set.empty()) {
    verdict.state = TrustState::kInsecure;
  }
  // Everything below an insecure cut is plain DNS for a validator,
  // whatever its internal DNSSEC state looks like.
  if (incoming == TrustState::kInsecure) verdict.state = TrustState::kInsecure;
  return finish();
}

void count_grok_work(const ZoneVerdict& verdict) {
  static auto& sig_attempts = metrics::Registry::global().counter(
      "analyzer.sig_validation_attempts");
  static auto& sig_verifications =
      metrics::Registry::global().counter("analyzer.sig_verifications");
  static auto& mirrored_servers =
      metrics::Registry::global().counter("analyzer.mirrored_servers");
  sig_attempts.add(static_cast<std::int64_t>(verdict.sig_validation_attempts));
  sig_verifications.add(static_cast<std::int64_t>(verdict.sig_verifications));
  mirrored_servers.add(static_cast<std::int64_t>(verdict.mirrored_servers));
}

Snapshot fold_verdicts(const dns::Name& query_domain,
                       const dns::Name& query_zone, UnixTime time,
                       const std::vector<const ZoneVerdict*>& verdicts) {
  Snapshot snapshot;
  snapshot.query_domain = query_domain;
  snapshot.query_zone = query_zone;
  snapshot.time = time;
  if (verdicts.empty()) {
    snapshot.status = SnapshotStatus::kLame;
    return snapshot;
  }
  for (const ZoneVerdict* verdict : verdicts) {
    for (const ErrorInstance& event : verdict->events) {
      auto& dst = category_of(event.code) == ErrorCategory::kCompanion
                      ? snapshot.companions
                      : snapshot.errors;
      if (std::find(dst.begin(), dst.end(), event) == dst.end()) {
        dst.push_back(event);
      }
    }
  }
  const ZoneVerdict& last = *verdicts.back();  // dfx-lint: allow(unchecked-front-back): empty chain returned above
  if (last.target_meta) snapshot.target_meta = *last.target_meta;

  // Final categorisation (§3.2.1).
  if (last.stop == ZoneVerdict::Stop::kLame) {
    snapshot.status = SnapshotStatus::kLame;
  } else if (last.stop == ZoneVerdict::Stop::kIncomplete) {
    snapshot.status = SnapshotStatus::kIncomplete;
  } else if (last.state == TrustState::kBogus) {
    snapshot.status = SnapshotStatus::kSignedBogus;
  } else if (last.state == TrustState::kInsecure) {
    snapshot.status = SnapshotStatus::kInsecure;
  } else if (!snapshot.errors.empty()) {
    snapshot.status = SnapshotStatus::kSignedValidMisconfig;
  } else {
    snapshot.status = SnapshotStatus::kSignedValid;
  }
  return snapshot;
}

Snapshot grok(const ProbeData& data, const GrokConfig& config) {
  static auto& grok_count = metrics::Registry::global().counter("analyze.groks");
  grok_count.add(1);
  std::vector<ZoneVerdict> verdicts;
  verdicts.reserve(data.chain.size());
  TrustState state = TrustState::kSecure;  // root anchors the chain
  for (std::size_t zi = 0; zi < data.chain.size(); ++zi) {
    verdicts.push_back(grok_zone(data.chain[zi], state,
                                 zi == 0 ? nullptr : &data.chain[zi - 1].apex,
                                 data.time, config,
                                 zi + 1 == data.chain.size()));
    const ZoneVerdict& verdict = verdicts.back();  // dfx-lint: allow(unchecked-front-back): just pushed
    count_grok_work(verdict);
    if (verdict.stop != ZoneVerdict::Stop::kNone) break;
    state = verdict.state;
  }
  std::vector<const ZoneVerdict*> folded;
  folded.reserve(verdicts.size());
  for (const auto& verdict : verdicts) folded.push_back(&verdict);
  return fold_verdicts(data.query_domain,
                       data.chain.empty() ? dns::Name() : data.chain.back().apex,
                       data.time, folded);
}

}  // namespace dfx::analyzer
