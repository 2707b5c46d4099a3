// The ZReplicator sandbox: a local hierarchy a.com → par.a.com → <child>,
// served by two authoritative servers, with the keys and signing state of
// every zone under our control (Figure 7). Implements DFixer's CommandHost,
// so auto-apply mode executes against it directly.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analyzer/grok.h"
#include "analyzer/probe.h"
#include "authserver/farm.h"
#include "dfixer/host.h"
#include "util/rng.h"
#include "util/simclock.h"
#include "zone/key.h"
#include "zone/signer.h"
#include "zone/zone.h"

namespace dfx::zreplicator {

/// Everything the sandbox tracks for one zone: the unsigned content, the
/// key directory, the signing configuration, and the latest signed copy.
struct ManagedZone {
  zone::Zone unsigned_zone{dns::Name::root()};
  zone::KeyStore keys{dns::Name::root()};
  zone::SigningConfig config;
  zone::Zone signed_zone{dns::Name::root()};
  bool sign_on_build = true;
};

class Sandbox : public dfixer::CommandHost {
 public:
  static constexpr const char* kNs1 = "ns1.sandbox";
  static constexpr const char* kNs2 = "ns2.sandbox";

  Sandbox(std::uint64_t seed, UnixTime start_time);

  SimClock& clock() { return clock_; }
  Rng& rng() { return rng_; }
  authserver::ServerFarm& farm() { return farm_; }

  const dns::Name& base_apex() const { return base_apex_; }
  const dns::Name& parent_apex() const { return parent_apex_; }
  const dns::Name& child_apex() const { return child_apex_; }

  /// Build the base (trust anchor) and parent zones, both cleanly signed.
  /// `parent_bogus` reproduces the paper's unfixable scenario: the parent
  /// keeps its DS at the base but loses its DNSKEY RRset.
  void build_base(bool parent_bogus = false);

  /// Create the child zone with the given key set and denial configuration;
  /// uploads a DS per KSK to the parent and signs everything. Key algorithm
  /// substitution happens in replicate(), not here: `algorithms` must be
  /// BIND-supported.
  struct ChildKeySpec {
    zone::KeyRole role = zone::KeyRole::kZsk;
    crypto::DnssecAlgorithm algorithm = crypto::DnssecAlgorithm::kRsaSha256;
    std::size_t bits = 0;
  };
  void build_child(const dns::Name& apex,
                   const std::vector<ChildKeySpec>& keys,
                   const zone::SigningConfig& config,
                   crypto::DigestType ds_digest, std::uint32_t ttl);

  ManagedZone& managed(const dns::Name& apex);
  const ManagedZone* find_managed(const dns::Name& apex) const;

  /// Re-sign a zone from its unsigned content + key store and push the
  /// result to every server.
  void resign_and_sync(const dns::Name& apex);

  /// Push the given *already signed* zone to every server (used by
  /// injectors that post-edit signed data).
  void push_signed(const dns::Name& apex, zone::Zone signed_zone);

  /// Push a signed copy to only one server (multi-server inconsistencies).
  void push_signed_to(const std::string& server,
                      const zone::Zone& signed_zone);

  /// Add/remove a DS RRset entry for `child` in the parent zone and
  /// re-sign the parent.
  void add_parent_ds(const dns::Name& child, const dns::DsRdata& ds);
  bool remove_parent_ds(const dns::Name& child, std::uint16_t key_tag,
                        const std::string& digest_hex = "");

  /// The chain of zone apexes root-first (for probing).
  std::vector<dns::Name> chain() const;

  /// Parental-agent CDS polling (RFC 7344): if the child publishes a CDS
  /// RRset that validates through the *existing* chain of trust (valid
  /// parent DS → DNSKEY RRset → CDS RRSIG), replace the parent's DS set
  /// for the child with the CDS contents and re-sign the parent. Returns
  /// false when no acceptable CDS is found — notably when the current
  /// delegation is broken, which is exactly why the paper could not rely
  /// on CDS for *repair* (§5.5.2).
  bool poll_cds(const dns::Name& child);

  /// Export the sandbox as the on-disk artifacts the real ZReplicator
  /// produces for BIND: per-zone `db.<apex>unsigned` / `db.<apex>signed`
  /// master files plus `K<zone>+AAA+TTTTT.key` public-key files. Returns
  /// the written paths. Throws std::runtime_error on I/O failure.
  std::vector<std::string> export_to_directory(
      const std::string& directory) const;

  // --- dfixer::CommandHost -------------------------------------------------
  bool apply(const zone::BindCommand& command) override;

  /// grok(probe(farm(), chain(), child_apex(), clock().now())), memoized
  /// per chain zone. grok is a fold down the chain (analyzer::grok_zone),
  /// so zone i's verdict depends only on what zone i's probe reads and
  /// the state the fold brings to it. Entry i keeps the verdict under a
  /// key of exactly those inputs: the farm's hosting counter; the name
  /// and probe stamp (analyzer::probe_stamp()) of every server of the zone
  /// and of its parent; the incoming trust state, the parent apex, the
  /// clock and the chain position. Only the zones whose key changed are
  /// probed and grokked again, so a child-only fix re-analyses only the
  /// child. Mutations made through the public farm() and clock()
  /// references change the key too. `zreplicator.zone_memo_hits` /
  /// `zone_memo_misses` count each zone the fold reaches;
  /// `zreplicator.analysis_memo_hits` counts the calls in which every
  /// zone hit. Debug builds check every hit against a fresh verdict.
  analyzer::Snapshot analyze() override;

 private:
  /// What one server contributes to a zone's probe: its name and its
  /// stamp (analyzer::probe_stamp() or parent_probe_stamp()).
  struct ServerStamp {
    std::string name;
    analyzer::ProbeStamp stamp;

    bool operator==(const ServerStamp&) const = default;
  };

  /// Everything probe_zone() and grok_zone() read for one chain zone.
  struct ZoneKey {
    std::uint64_t hosting_version = 0;
    std::vector<ServerStamp> servers;
    std::vector<ServerStamp> parent_servers;
    analyzer::TrustState incoming = analyzer::TrustState::kSecure;
    dns::Name apex;
    std::optional<dns::Name> parent_apex;
    UnixTime now = 0;
    std::size_t position = 0;
    bool is_target = false;

    bool operator==(const ZoneKey&) const = default;
  };

  struct ZoneMemo {
    std::optional<ZoneKey> key;  // empty until the position is analysed
    analyzer::ZoneVerdict verdict;
  };

  ZoneKey zone_key(const std::vector<dns::Name>& zones, std::size_t position,
                   analyzer::TrustState incoming, UnixTime now,
                   std::uint64_t hosting_version) const;

  void host_everywhere(const zone::Zone& signed_zone);

  Rng rng_;
  SimClock clock_;
  authserver::ServerFarm farm_;
  dns::Name base_apex_;
  dns::Name parent_apex_;
  dns::Name child_apex_;
  std::map<dns::Name, ManagedZone, dns::Name::Less> zones_;
  /// Last keys created via apply(kDnssecKeygen), for "NEW" DS resolution.
  std::optional<std::uint16_t> last_generated_ksk_;
  /// analyze()'s memo: one entry per chain position.
  std::vector<ZoneMemo> zone_memo_;
};

}  // namespace dfx::zreplicator
