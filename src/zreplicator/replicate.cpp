#include "zreplicator/replicate.h"

#include <algorithm>

#include "util/codec.h"
#include "util/metrics.h"
#include "zreplicator/injector.h"

namespace dfx::zreplicator {
namespace {

using analyzer::ErrorCode;

/// Map a key's observed algorithm to one the modelled BIND can generate,
/// substituting retired algorithms with unused supported ones (§5.5.1).
[[nodiscard]] std::optional<crypto::DnssecAlgorithm> substitute_algorithm(
    std::uint8_t observed, std::set<std::uint8_t>& in_use) {
  const auto info = crypto::algorithm_info(observed);
  if (info && info->supported_by_bind) {
    in_use.insert(observed);
    return info->number;
  }
  for (const auto alg : crypto::bind_supported_algorithms()) {
    const auto number = static_cast<std::uint8_t>(alg);
    if (!in_use.contains(number)) {
      in_use.insert(number);
      return alg;
    }
  }
  return std::nullopt;  // supported algorithms exhausted
}

}  // namespace

ReplicationResult replicate(const SnapshotSpec& spec, std::uint64_t seed,
                            UnixTime now) {
  static auto& replicate_count =
      metrics::Registry::global().counter("zreplicator.replications");
  replicate_count.add(1);
  ReplicationResult result;
  if (spec.buggy_artifact) {
    result.failure_reason =
        "snapshot stems from a buggy-nameserver artifact the zone loader "
        "refuses to serve";
    return result;
  }

  // Translate the observed key set, substituting algorithms as needed.
  std::vector<Sandbox::ChildKeySpec> key_specs;
  std::set<std::uint8_t> in_use;
  for (const auto& key : spec.meta.keys) {
    auto alg = substitute_algorithm(key.algorithm, in_use);
    if (!alg) {
      result.failure_reason =
          "algorithm substitution exhausted the supported algorithm set";
      return result;
    }
    Sandbox::ChildKeySpec ks;
    ks.role = key.is_ksk() ? zone::KeyRole::kKsk : zone::KeyRole::kZsk;
    ks.algorithm = *alg;
    ks.bits = key.key_bits;
    key_specs.push_back(ks);
  }
  if (key_specs.empty()) {
    // A signed snapshot implies at least one key pair existed.
    key_specs.push_back({zone::KeyRole::kKsk,
                         crypto::DnssecAlgorithm::kRsaSha256, 0});
    key_specs.push_back({zone::KeyRole::kZsk,
                         crypto::DnssecAlgorithm::kRsaSha256, 0});
  } else {
    const bool any_zsk = std::any_of(
        key_specs.begin(), key_specs.end(), [](const auto& ks) {
          return ks.role == zone::KeyRole::kZsk;
        });
    const bool any_ksk = std::any_of(
        key_specs.begin(), key_specs.end(), [](const auto& ks) {
          return ks.role == zone::KeyRole::kKsk;
        });
    if (!any_ksk) {
      key_specs.push_back(  // dfx-lint: allow(unchecked-front-back): non-empty branch
          {zone::KeyRole::kKsk, key_specs.front().algorithm, 0});
    }
    if (!any_zsk) {
      key_specs.push_back(  // dfx-lint: allow(unchecked-front-back): non-empty branch
          {zone::KeyRole::kZsk, key_specs.front().algorithm, 0});
    }
  }

  // The denial mode must match the intended errors and cannot change once
  // record-level injections start, so it is decided up front. Combinations
  // demanding both NSEC-only and NSEC3-only anomalies are intrinsically
  // irreplicable in one zone.
  const bool need_nsec3 = std::any_of(
      spec.intended_errors.begin(), spec.intended_errors.end(),
      [](ErrorCode c) {
        return analyzer::category_of(c) ==
                   analyzer::ErrorCategory::kNsec3Only ||
               c == ErrorCode::kExcessiveNsec3Iterations;
      });
  const bool need_nsec =
      spec.intended_errors.contains(ErrorCode::kIncorrectLastNsec);
  if (need_nsec && need_nsec3) {
    result.failure_reason =
        "snapshot mixes NSEC-only and NSEC3-only anomalies; a single zone "
        "cannot serve both chains";
    return result;
  }
  zone::SigningConfig config;
  config.denial = need_nsec3 || (spec.meta.uses_nsec3 && !need_nsec)
                      ? zone::DenialMode::kNsec3
                      : zone::DenialMode::kNsec;
  // The *intended* NZIC value is injected separately; a clean build starts
  // compliant unless NZIC is part of the spec.
  config.nsec3_iterations =
      spec.intended_errors.contains(ErrorCode::kNonzeroIterationCount)
          ? std::max<std::uint16_t>(spec.meta.nsec3_iterations, 1)
          : 0;
  if (!spec.meta.nsec3_salt_hex.empty()) {
    if (auto salt = hex_decode(spec.meta.nsec3_salt_hex)) {
      config.nsec3_salt = *salt;
    }
  }
  config.nsec3_opt_out = spec.meta.nsec3_opt_out;

  crypto::DigestType digest = crypto::DigestType::kSha256;
  for (const auto& ds : spec.meta.ds_records) {
    const auto type = static_cast<crypto::DigestType>(ds.digest_type);
    if (crypto::digest_length(type) != 0) {
      digest = type;
      break;
    }
  }

  auto sandbox = std::make_unique<Sandbox>(seed, now);
  sandbox->build_base(spec.parent_bogus);
  sandbox->build_child(dns::Name::of("chd.par.a.com."), key_specs, config,
                       digest, spec.meta.max_ttl);

  if (spec.meta.has_wildcard) {
    auto& mz = sandbox->managed(sandbox->child_apex());
    dns::ARdata a;
    a.address = {10, 0, 2, 42};
    mz.unsigned_zone.add(sandbox->child_apex().child("*"), dns::RRType::kA,
                         spec.meta.max_ttl, a);
    sandbox->resign_and_sync(sandbox->child_apex());
  }

  // Operational twists observed in the wild (they shape Table 7's
  // instruction mix without adding Table 3 codes).
  if (spec.ksk_missing) {
    // The KSK's files were lost post-rollover: its DNSKEY is gone while
    // the parent DS still references it.
    auto& mz = sandbox->managed(sandbox->child_apex());
    std::vector<std::uint16_t> doomed;
    for (const auto& key : mz.keys.keys()) {
      if (key.role() == zone::KeyRole::kKsk) doomed.push_back(key.tag());
    }
    for (const auto tag : doomed) mz.keys.remove_by_tag(tag);
    sandbox->resign_and_sync(sandbox->child_apex());
  } else if (spec.stale_ds_only) {
    // The registrar kept an old DS and lost the current one: remove every
    // DS that actually validates, leaving only injected/stale ones. DFixer
    // must re-upload from the existing KSK.
    auto& mz = sandbox->managed(sandbox->child_apex());
    for (const auto& key : mz.keys.keys()) {
      if (key.role() == zone::KeyRole::kKsk) {
        sandbox->remove_parent_ds(sandbox->child_apex(), key.tag());
      }
    }
    // A stale DS referencing the pre-rollover key takes its place.
    dns::DsRdata stale;
    stale.key_tag = 1111;
    stale.algorithm =
        static_cast<std::uint8_t>(  // dfx-lint: allow(unchecked-front-back): filled above
            key_specs.front().algorithm);
    stale.digest_type = static_cast<std::uint8_t>(digest);
    stale.digest.assign(crypto::digest_length(digest), 0x5A);
    sandbox->add_parent_ds(sandbox->child_apex(), stale);
  }

  // Inject the intended errors.
  bool all_injected = true;
  for (const auto code : injection_order(spec.intended_errors)) {
    if (code == ErrorCode::kNonzeroIterationCount) continue;  // via config
    // The budget companion materialises from the pairing blowup itself.
    if (code == ErrorCode::kValidatorWorkBudgetExceeded &&
        spec.intended_errors.contains(
            ErrorCode::kExcessiveSignatureValidations)) {
      continue;
    }
    if (spec.unreplicable_variants.contains(code)) {
      all_injected = false;
      if (result.failure_reason.empty()) {
        result.failure_reason =
            "original '" + analyzer::error_code_name(code) +
            "' was a buggy-nameserver variant the local environment refuses "
            "to serve";
      }
      continue;
    }
    if (!inject_error(*sandbox, code)) {
      all_injected = false;
      if (result.failure_reason.empty()) {
        result.failure_reason = "injector could not realise error '" +
                                analyzer::error_code_name(code) + "'";
      }
    }
  }

  // GE: what grok sees on the replica.
  const auto snapshot = sandbox->analyze();
  for (const auto& e : snapshot.errors) result.generated.insert(e.code);
  result.sandbox = std::move(sandbox);
  result.complete =
      all_injected &&
      std::includes(result.generated.begin(), result.generated.end(),
                    spec.intended_errors.begin(), spec.intended_errors.end());
  if (!result.complete && result.failure_reason.empty()) {
    result.failure_reason = "grok did not observe every intended error";
  }
  return result;
}

}  // namespace dfx::zreplicator
