#include "zonelint/zonelint.h"

#include <map>
#include <optional>
#include <utility>

#include "analyzer/judge.h"
#include "authserver/authserver.h"
#include "dnscore/rr.h"
#include "util/codec.h"
#include "zone/nsec3.h"
#include "zonelint/admission.h"

namespace dfx::zonelint {
namespace {

using analyzer::ErrorCategory;
using analyzer::ErrorCode;

// ---- Fix-spec builders ----------------------------------------------------

/// How the zone is signed now: NSEC3 when it has an apex NSEC3PARAM or
/// NSEC3 records, with the NSEC3PARAM's salt and iterations and the
/// records' opt-out flag.
zone::SignZoneParams current_signing(const zone::Zone& zone) {
  zone::SignZoneParams p;
  p.zone = zone.apex();
  if (const auto* params = zone.find(zone.apex(), dns::RRType::kNSEC3PARAM);
      params != nullptr && !params->empty()) {
    if (const auto* param =
            std::get_if<dns::Nsec3ParamRdata>(&params->rdatas().front())) {
      p.nsec3 = true;
      p.nsec3_iterations = param->iterations;
      if (!param->salt.empty()) p.nsec3_salt_hex = hex_encode(param->salt);
    }
  }
  for (const auto* rrset : zone.all_rrsets()) {
    if (rrset->type() != dns::RRType::kNSEC3) continue;
    for (const auto& rdata : rrset->rdatas()) {
      if (const auto* n3 = std::get_if<dns::Nsec3Rdata>(&rdata)) {
        p.nsec3 = true;
        p.opt_out = p.opt_out || n3->opt_out();
      }
    }
  }
  return p;
}

/// Re-sign the zone as it is signed now (optionally forcing the NSEC3
/// iteration count down) and push to every server.
zone::Instruction fix_resign(const zone::Zone& zone,
                             std::optional<std::uint16_t> iterations = {}) {
  zone::SignZoneParams p = current_signing(zone);
  if (p.nsec3 && iterations.has_value()) p.nsec3_iterations = *iterations;
  zone::Instruction ins;
  ins.kind = zone::InstructionKind::kSignZone;
  ins.description = iterations.has_value()
                        ? "re-sign the zone with NSEC3 iterations=" +
                              std::to_string(*iterations) +
                              " and synchronize all servers"
                        : "re-sign the zone and synchronize all servers";
  ins.commands.push_back(zone::cmd_signzone(p));
  ins.commands.push_back(zone::cmd_sync_servers(zone.apex()));
  return ins;
}

/// Remove every surplus key of each colliding (key tag, algorithm) group,
/// then re-sign. This is the DFixer repair for the KeyTrap pairing shapes.
zone::Instruction fix_prune_colliding(const zone::Zone& zone) {
  zone::Instruction ins;
  ins.kind = zone::InstructionKind::kRemoveRevokedKey;
  ins.description =
      "remove the surplus DNSKEYs sharing a (key tag, algorithm) pair, "
      "then re-sign";
  std::map<std::pair<std::uint16_t, std::uint8_t>, std::size_t> tag_count;
  if (const auto* dnskeys = zone.find(zone.apex(), dns::RRType::kDNSKEY)) {
    for (const auto& rdata : dnskeys->rdatas()) {
      if (const auto* key = std::get_if<dns::DnskeyRdata>(&rdata)) {
        ++tag_count[{key->key_tag(), key->algorithm}];
      }
    }
  }
  for (const auto& [tag_alg, count] : tag_count) {
    if (count < 2) continue;
    ins.commands.push_back(
        zone::cmd_remove_key_file(zone.apex(), tag_alg.first));
  }
  const auto resign = fix_resign(zone);
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

/// The repair for one finding: remove the key or DS record it names,
/// prune colliding keys, or re-sign.
zone::Instruction fix_for(const zone::Zone& zone, ErrorCode code,
                          const analyzer::FindingSubject& subject) {
  switch (code) {
    case ErrorCode::kBadKeyLength:
    case ErrorCode::kRevokedKey:
      if (subject.key_tag) return fix_remove_key(zone.apex(), *subject.key_tag);
      return {};
    case ErrorCode::kCollidingKeyTags:
    case ErrorCode::kExcessiveSignatureValidations:
      return fix_prune_colliding(zone);
    case ErrorCode::kMissingKskForAlgorithm:
    case ErrorCode::kMissingDnskeyForDs:
    case ErrorCode::kInvalidDigest:
      if (subject.ds != nullptr) return fix_remove_ds(zone.apex(), *subject.ds);
      return {};
    case ErrorCode::kNoSecureEntryPoint:
    case ErrorCode::kMissingSignatureForAlgorithm:
      return {};
    case ErrorCode::kNonzeroIterationCount:
    case ErrorCode::kExcessiveNsec3Iterations:
      return fix_resign(zone, std::uint16_t{0});
    default:
      return fix_resign(zone);
  }
}

// ---- Finding sink ---------------------------------------------------------

/// Mirrors grok's ErrorSink: de-duplicate by code (one zone here), route
/// companion-category codes to the companion list. A finding's fix is
/// built only when the finding is kept.
class Sink {
 public:
  explicit Sink(Report& report) : report_(report) {}

  template <typename MakeFix>
  void add(ErrorCode code, const dns::Name& zone, std::string detail,
           const MakeFix& make_fix) {
    auto& dst = analyzer::category_of(code) == ErrorCategory::kCompanion
                    ? report_.companions
                    : report_.findings;
    for (const auto& f : dst) {
      if (f.code == code) return;
    }
    dst.push_back(Finding{code, zone, std::move(detail), make_fix()});
  }

 private:
  Report& report_;
};

// Rule F — the validator work budget. The cost model prices the whole
// zone's worst case; a validator enforcing the same budgets would abandon
// the zone with kValidatorWorkBudgetExceeded (EDE 49). The hashing side
// only applies when the iteration count is *under* the refusal cap — at
// or above the cap a validator refuses before hashing anything.
void check_budget(const zone::Zone& zone, const ValidationCost& cost,
                  const analyzer::GrokConfig& budget, Sink& sink) {
  if (cost.signature_attempts > budget.max_sig_validations) {
    sink.add(ErrorCode::kValidatorWorkBudgetExceeded, zone.apex(),
             "worst-case signature validations " +
                 std::to_string(cost.signature_attempts) +
                 " exceed the budget of " +
                 std::to_string(budget.max_sig_validations),
             [&] { return fix_prune_colliding(zone); });
    return;
  }
  if (cost.nsec3_iterations <= budget.max_nsec3_iterations &&
      cost.negative_proof_hash_cost > budget.max_hash_cost &&
      current_signing(zone).nsec3) {
    sink.add(ErrorCode::kValidatorWorkBudgetExceeded, zone.apex(),
             "worst-case NSEC3 hashing cost " +
                 std::to_string(cost.negative_proof_hash_cost) +
                 " exceeds the budget of " +
                 std::to_string(budget.max_hash_cost),
             [&] { return fix_resign(zone, std::uint16_t{0}); });
  }
}

}  // namespace

Report lint_zone(const zone::Zone& zone,
                 std::span<const dns::DsRdata> parent_ds,
                 const LintOptions& options) {
  Report report;
  const dns::Name& apex = zone.apex();
  report.apex = apex;
  report.cost = admission_cost_scan(zone);
  Sink sink(report);

  // The questions grok's prober puts to one server, put to
  // `authserver::answer`: the judge reads the same views grok reads.
  const authserver::DenialIndex denial(zone);
  const auto ask = [&](const dns::Name& qname, dns::RRType qtype) {
    return authserver::answer(zone, denial, qname, qtype);
  };
  analyzer::ServerProbe sp;
  sp.dnskey = ask(apex, dns::RRType::kDNSKEY);

  analyzer::ZoneJudge judge{
      apex, options.budget,
      options.now == 0 ? std::nullopt : std::optional<UnixTime>(options.now),
      analyzer::JudgeHooks{
          .report =
              [&](ErrorCode code, std::string detail,
                  const analyzer::FindingSubject& subject) {
                sink.add(code, apex, std::move(detail),
                         [&] { return fix_for(zone, code, subject); });
              },
          // No crypto: a corrupted signature is out of reach (zonelint.h).
          .verify = {},
          .hash = [](const dns::Name& name, const Bytes& salt,
                     std::uint16_t iterations) -> std::optional<Bytes> {
            return zone::nsec3_hash(name, salt, iterations);
          }}};
  const analyzer::RRsetView dnskey_view =
      analyzer::extract(sp.dnskey.answers, apex, dns::RRType::kDNSKEY);
  for (const auto& rdata : dnskey_view.rrset.rdatas()) {
    if (const auto* key = std::get_if<dns::DnskeyRdata>(&rdata)) {
      judge.dnskeys.push_back(*key);
    }
  }
  judge.ds_set.assign(parent_ds.begin(), parent_ds.end());
  report.zone_signed = !judge.dnskeys.empty();

  // Rules A and B — key-level checks and the DS linkage.
  judge.check_keys();
  if (!judge.ds_set.empty()) judge.validate_ds();
  if (!report.zone_signed) return report;

  // Rules C, D and E — one server's answers, then algorithm completeness.
  analyzer::ask_apex_questions(apex, ask, sp);
  // An island of trust has no DS-anchored entry point: its own keys may
  // sign the DNSKEY RRset.
  const analyzer::KeyRefs dnskey_signers =
      judge.ds_set.empty() ? judge.all_keys() : judge.sep_keys;
  std::vector<analyzer::RRsetView> data_views;
  // The verdict is a trust state, which the lint does not predict.
  (void)judge.check_server(sp, dnskey_signers, data_views);
  judge.check_algorithm_completeness({&sp, 1}, data_views);

  check_budget(zone, report.cost, options.budget, sink);
  return report;
}

std::set<analyzer::ErrorCode> finding_codes(const Report& report) {
  std::set<analyzer::ErrorCode> codes;
  for (const auto& f : report.findings) codes.insert(f.code);
  return codes;
}

}  // namespace dfx::zonelint
