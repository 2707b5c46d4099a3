// The denial judgement: what a validator concludes from one server's
// negative answers for a signed zone (the NXDOMAIN, sorts-last NXDOMAIN,
// NODATA and NSEC3PARAM probes), where the taxonomy's NSEC/NSEC3 codes
// are reported. grok runs it over live probe responses; zonelint runs it
// over the answers `authserver::answer` gives for a zone file. The only
// things the two callers do differently go through DenialHooks.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analyzer/errorcode.h"
#include "analyzer/grok.h"
#include "util/bytes.h"

namespace dfx::analyzer {

/// An RRset plus the RRSIGs covering it, pulled out of a response section.
struct RRsetView {
  dns::RRset rrset;
  std::vector<dns::RrsigRdata> sigs;
  bool present = false;
};

/// The `owner`/`type` RRset of `section` and the RRSIGs covering it.
RRsetView extract(const authserver::Section& section,
                  const dns::Name& owner, dns::RRType type);

/// All NSEC or NSEC3 views (any owner) in a response's authority section.
std::vector<RRsetView> extract_proofs(const authserver::QueryResult& result,
                                      dns::RRType type);

/// Where live validation and static prediction differ.
struct DenialHooks {
  /// Receives every finding, in the order the judge reaches it.
  std::function<void(ErrorCode code, std::string detail)> report;
  /// Checks the signatures over one served proof RRset; false when none
  /// validates.
  std::function<bool(const RRsetView& view)> check_proof;
  /// The NSEC3 hash of `name`, or nullopt once the caller's hashing
  /// budget is spent. The judge abandons the proof walk on nullopt.
  std::function<std::optional<Bytes>(const dns::Name& name, const Bytes& salt,
                                     std::uint16_t iterations)>
      hash;
};

/// Judge the negative answers `sp` holds for the signed zone at `apex`:
/// report the NSEC/NSEC3 error codes through `hooks`. Returns false when
/// the answers leave the zone bogus: any finding other than a nonfatal
/// nonzero iteration count (`config.nzic_is_fatal`), a proof whose
/// signatures fail, or a proof walk abandoned for budget.
[[nodiscard]] bool judge_denial(const ServerProbe& sp, const dns::Name& apex,
                                const GrokConfig& config, DenialHooks& hooks);

}  // namespace dfx::analyzer
