#include "analyzer/grok.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "analyzer/judge.h"
#include "util/codec.h"
#include "util/metrics.h"
#include "zone/nsec3.h"

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

/// Validation context for one zone in the chain: the shared judge plus
/// what only live validation has (several servers, the parent's DS
/// answers, the work budget and the crypto verdict memo).
struct ZoneChecker {
  ZoneChecker(const ZoneProbe& zp, const GrokConfig& config, UnixTime now,
              ErrorSink& sink)
      : zp(zp),
        config(config),
        sink(sink),
        judge{zp.apex, config, now,
              JudgeHooks{
                  .report =
                      [this](ErrorCode code, std::string detail,
                             const FindingSubject&) {
                        this->sink.add(code, apex(), std::move(detail));
                      },
                  .verify = [this](const Bytes& signed_data,
                                   const dns::RrsigRdata& sig,
                                   const dns::DnskeyRdata& key)
                      -> std::optional<bool> {
                    if (!charge_sig_validation()) return std::nullopt;
                    return verify(signed_data, sig, key);
                  },
                  // Every NSEC3 hash costs iterations + 1 SHA-1
                  // applications, charged against the zone's hashing
                  // budget.
                  .hash = [this](const dns::Name& name, const Bytes& salt,
                                 std::uint16_t iterations)
                      -> std::optional<Bytes> {
                    if (!charge_hash_cost(
                            static_cast<std::size_t>(iterations) + 1)) {
                      return std::nullopt;
                    }
                    return zone::nsec3_hash(name, salt, iterations);
                  }}} {}
  ZoneChecker(const ZoneChecker&) = delete;
  ZoneChecker& operator=(const ZoneChecker&) = delete;

  const ZoneProbe& zp;
  const GrokConfig& config;
  ErrorSink& sink;
  ZoneJudge judge;

  bool ds_absence_proven = false;

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

  void note_budget_exhausted(const std::string& what) {
    budget_exhausted = true;
    sink.add(ErrorCode::kValidatorWorkBudgetExceeded, apex(), what);
    judge.note_failure();
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
    std::set<Bytes> key_wires;  // of `judge.dnskeys`, in first-seen order
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
          judge.dnskeys.push_back(*key);
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
        judge.note_failure();
        break;
      }
    }
    judge.check_keys();
  }

  void gather_ds() {
    std::set<Bytes> seen;
    for (const auto& result : zp.parent_ds) {
      const auto view = extract(result.answers, apex(), dns::RRType::kDS);
      for (const auto& rdata : view.rrset.rdatas()) {
        if (!seen.insert(dns::rdata_to_wire(rdata)).second) continue;
        const auto* ds = std::get_if<dns::DsRdata>(&rdata);
        if (ds != nullptr) judge.ds_set.push_back(*ds);
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
};

/// Extract the zone meta-parameters ZReplicator mirrors (Fig. 7 step 2).
ZoneMeta extract_meta(const ZoneProbe& zp, const ZoneJudge& judge) {
  ZoneMeta meta;
  meta.apex = zp.apex;
  meta.server_count = static_cast<int>(zp.servers.size());
  for (const auto& key : judge.dnskeys) {
    KeyMeta km;
    km.flags = key.flags;
    km.algorithm = key.algorithm;
    km.key_tag = key.key_tag();
    km.key_bits = observed_key_bits(key);
    km.length_plausible =
        crypto::plausible_key_length(key.algorithm, key.public_key);
    meta.keys.push_back(km);
  }
  for (std::size_t di = 0; di < judge.ds_set.size(); ++di) {
    const auto& ds = judge.ds_set[di];
    DsMeta dm;
    dm.key_tag = ds.key_tag;
    dm.algorithm = ds.algorithm;
    dm.digest_type = ds.digest_type;
    dm.digest_hex = hex_encode(ds.digest);
    dm.matches_dnskey = std::any_of(
        judge.dnskeys.begin(), judge.dnskeys.end(),
        [&](const dns::DnskeyRdata& k) {
          return k.key_tag() == ds.key_tag && k.algorithm == ds.algorithm;
        });
    dm.valid = di < judge.ds_valid.size() && judge.ds_valid[di];
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

  const bool zone_signed = !checker.judge.dnskeys.empty();

  // Trust-state transition at the delegation.
  TrustState zone_state = incoming;
  if (incoming == TrustState::kSecure && parent_apex != nullptr) {
    if (checker.judge.ds_set.empty()) {
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
      checker.judge.validate_ds();
      if (checker.judge.sep_keys.empty()) {
        zone_state = TrustState::kBogus;
      }
    }
  } else if (parent_apex == nullptr && !zone_signed) {
    zone_state = TrustState::kInsecure;
  }

  if (zone_signed) {
    ZoneJudge& judge = checker.judge;
    // Trust-anchor zone, island of trust, or a signed zone below an
    // insecure cut: there is no DS-anchored SEP, so internal consistency
    // is checked against the zone's own key set.
    const KeyRefs dnskey_signers =
        parent_apex == nullptr || judge.ds_set.empty() ||
                incoming != TrustState::kSecure
            ? judge.all_keys()
            : judge.sep_keys;

    std::vector<RRsetView> data_views;
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
      if (!judge.check_server(sp, dnskey_signers, data_views)) {
        zone_state = TrustState::kBogus;
      }
      charged[si] = {checker.sig_validations_spent - sigs_before,
                     checker.hash_cost_spent - hash_before};
    }
    judge.check_algorithm_completeness(zp.servers, data_views);
    if (judge.any_validation_failure && zone_state == TrustState::kSecure) {
      zone_state = TrustState::kBogus;
    }
  }

  // Attempts charged vs crypto actually run (one per memo entry).
  verdict.sig_validation_attempts = checker.sig_validations_spent;
  verdict.sig_verifications = checker.verdicts.size();

  if (is_target) verdict.target_meta = extract_meta(zp, checker.judge);
  verdict.state = zone_state;
  if (zone_state == TrustState::kBogus && !zone_signed &&
      checker.judge.ds_set.empty()) {
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
