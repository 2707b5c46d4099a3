// The DNSSEC judgement of one zone: the key-level checks, the DS linkage,
// the RRSIG checks, one server's pass over its answers (apex DNSKEY, then
// SOA/NS/A, then the wildcard answer and its proof, then the denial
// judgement of denial.h) and algorithm completeness. grok runs it over
// live probe responses; zonelint over the answers `authserver::answer`
// gives for a zone file. The only things the two callers do differently
// go through JudgeHooks.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analyzer/denial.h"

namespace dfx::analyzer {

/// The DNSKEY or DS record a finding names, for a repair that removes it:
/// the key of kBadKeyLength and kRevokedKey, the DS record of
/// kMissingKskForAlgorithm, kMissingDnskeyForDs and kInvalidDigest.
struct FindingSubject {
  std::optional<std::uint16_t> key_tag;
  const dns::DsRdata* ds = nullptr;
};

/// Where live validation and static prediction differ.
struct JudgeHooks {
  /// Receives every finding, in the order the judge reaches it.
  std::function<void(ErrorCode code, std::string detail,
                     const FindingSubject& subject)>
      report;
  /// Does `sig` verify over `signed_data` with `key`? nullopt once the
  /// caller's signature budget is spent: the judge then abandons the
  /// signature without calling it invalid. Empty: no crypto, so every
  /// signature that passes the structural checks counts as valid.
  std::function<std::optional<bool>(const Bytes& signed_data,
                                    const dns::RrsigRdata& sig,
                                    const dns::DnskeyRdata& key)>
      verify;
  /// As DenialHooks::hash.
  std::function<std::optional<Bytes>(const dns::Name& name, const Bytes& salt,
                                     std::uint16_t iterations)>
      hash;
};

using KeyRefs = std::vector<const dns::DnskeyRdata*>;

/// One zone's judgement. The caller fills `dnskeys` and `ds_set`, then
/// runs check_keys, validate_ds (when the parent publishes DS and the
/// chain above is secure), check_server for each server and
/// check_algorithm_completeness, in that order.
struct ZoneJudge {
  const dns::Name& apex;
  const GrokConfig& config;
  /// Reference time of the signature-window checks (expired, not yet
  /// valid, TTL beyond expiration); nullopt skips them.
  std::optional<UnixTime> now;
  JudgeHooks hooks;

  std::vector<dns::DnskeyRdata> dnskeys{};  // the zone's DNSKEYs
  std::vector<dns::DsRdata> ds_set{};       // the parent's DS set
  std::vector<bool> ds_valid{};             // parallel to ds_set
  KeyRefs sep_keys{};                       // DS-validated keys
  /// Set by a finding that leaves the zone bogus on its own.
  bool any_validation_failure = false;

  void note_failure() { any_validation_failure = true; }

  /// Every key of `dnskeys`.
  KeyRefs all_keys() const;

  /// Implausible key lengths and colliding (key tag, algorithm) pairs.
  void check_keys();

  /// DS ↔ DNSKEY linkage: fills `ds_valid` and `sep_keys`.
  void validate_ds();

  /// One server's answers: the DNSKEY RRset against `dnskey_signers`, the
  /// apex SOA/NS/A sets (appended to `data_views` when present), the
  /// wildcard-synthesized answer to the NXDOMAIN probe and its proof, and
  /// judge_denial. Returns false when the answers leave the zone bogus.
  [[nodiscard]] bool check_server(const ServerProbe& sp,
                                  const KeyRefs& dnskey_signers,
                                  std::vector<RRsetView>& data_views);

  /// RFC 4035 algorithm completeness over `data_views` (every DNSKEY
  /// algorithm signs each), and every DS algorithm signs the DNSKEY
  /// RRset of the first reachable server in `servers`.
  void check_algorithm_completeness(std::span<const ServerProbe> servers,
                                    const std::vector<RRsetView>& data_views);

 private:
  void report(ErrorCode code, std::string detail,
              const FindingSubject& subject = {});

  /// Judge the signatures over one RRset. `allowed_keys` is the key set
  /// a valid path may use. Returns true if at least one signature fully
  /// validates. Reports per-signature anomalies.
  bool check_rrset(const RRsetView& view, const KeyRefs& allowed_keys,
                   bool require_signature);
};

}  // namespace dfx::analyzer
