#include "zreplicator/sandbox.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "dnscore/masterfile.h"
#include "util/check.hpp"
#include "util/codec.h"
#include "util/metrics.h"

namespace dfx::zreplicator {
namespace {

dns::SoaRdata make_soa(const dns::Name& apex) {
  dns::SoaRdata soa;
  soa.mname = apex.child("ns1");
  soa.rname = apex.child("hostmaster");
  soa.serial = 1;
  soa.minimum = 3600;
  return soa;
}

dns::ARdata ip(std::uint8_t a, std::uint8_t b, std::uint8_t c,
               std::uint8_t d) {
  dns::ARdata r;
  r.address = {a, b, c, d};
  return r;
}

}  // namespace

Sandbox::Sandbox(std::uint64_t seed, UnixTime start_time)
    : rng_(seed),
      clock_(start_time),
      base_apex_(dns::Name::of("a.com.")),
      parent_apex_(dns::Name::of("par.a.com.")),
      child_apex_(dns::Name::of("chd.par.a.com.")) {}

ManagedZone& Sandbox::managed(const dns::Name& apex) {
  const auto it = zones_.find(apex);
  if (it == zones_.end()) {
    throw std::invalid_argument("Sandbox: unmanaged zone " + apex.to_string());
  }
  return it->second;
}

const ManagedZone* Sandbox::find_managed(const dns::Name& apex) const {
  const auto it = zones_.find(apex);
  return it == zones_.end() ? nullptr : &it->second;
}

void Sandbox::host_everywhere(const zone::Zone& signed_zone) {
  farm_.host_zone({kNs1, kNs2}, signed_zone);
}

void Sandbox::build_base(bool parent_bogus) {
  const UnixTime now = clock_.now();

  // --- base zone a.com (the local trust anchor) --------------------------
  ManagedZone base;
  base.unsigned_zone = zone::Zone(base_apex_);
  base.unsigned_zone.add(base_apex_, dns::RRType::kSOA, 3600,
                         make_soa(base_apex_));
  base.unsigned_zone.add(base_apex_, dns::RRType::kNS, 3600,
                         dns::NsRdata{base_apex_.child("ns1")});
  base.unsigned_zone.add(base_apex_, dns::RRType::kNS, 3600,
                         dns::NsRdata{base_apex_.child("ns2")});
  base.unsigned_zone.add(base_apex_.child("ns1"), dns::RRType::kA, 3600,
                         ip(10, 0, 0, 1));
  base.unsigned_zone.add(base_apex_.child("ns2"), dns::RRType::kA, 3600,
                         ip(10, 0, 0, 2));
  base.unsigned_zone.add(base_apex_, dns::RRType::kA, 3600, ip(10, 0, 0, 10));
  // Delegation to the parent zone.
  base.unsigned_zone.add(parent_apex_, dns::RRType::kNS, 3600,
                         dns::NsRdata{base_apex_.child("ns1")});
  base.unsigned_zone.add(parent_apex_, dns::RRType::kNS, 3600,
                         dns::NsRdata{base_apex_.child("ns2")});
  base.keys = zone::KeyStore(base_apex_);
  Rng base_rng = rng_.fork("base-keys");
  base.keys.generate(base_rng, zone::KeyRole::kKsk,
                     crypto::DnssecAlgorithm::kEcdsaP256Sha256, now);
  base.keys.generate(base_rng, zone::KeyRole::kZsk,
                     crypto::DnssecAlgorithm::kEcdsaP256Sha256, now);
  zones_.insert_or_assign(base_apex_, std::move(base));

  // --- parent zone par.a.com ---------------------------------------------
  ManagedZone parent;
  parent.unsigned_zone = zone::Zone(parent_apex_);
  parent.unsigned_zone.add(parent_apex_, dns::RRType::kSOA, 3600,
                           make_soa(parent_apex_));
  parent.unsigned_zone.add(parent_apex_, dns::RRType::kNS, 3600,
                           dns::NsRdata{base_apex_.child("ns1")});
  parent.unsigned_zone.add(parent_apex_, dns::RRType::kNS, 3600,
                           dns::NsRdata{base_apex_.child("ns2")});
  parent.unsigned_zone.add(parent_apex_, dns::RRType::kA, 3600,
                           ip(10, 0, 1, 10));
  parent.keys = zone::KeyStore(parent_apex_);
  Rng parent_rng = rng_.fork("parent-keys");
  parent.keys.generate(parent_rng, zone::KeyRole::kKsk,
                       crypto::DnssecAlgorithm::kEcdsaP256Sha256, now);
  parent.keys.generate(parent_rng, zone::KeyRole::kZsk,
                       crypto::DnssecAlgorithm::kEcdsaP256Sha256, now);
  zones_.insert_or_assign(parent_apex_, std::move(parent));

  // Link parent into base via DS.
  auto& parent_ref = managed(parent_apex_);
  for (const auto& key : parent_ref.keys.keys()) {
    if (key.role() != zone::KeyRole::kKsk) continue;
    managed(base_apex_)
        .unsigned_zone.add(parent_apex_, dns::RRType::kDS, 3600,
                           zone::make_ds(key, crypto::DigestType::kSha256));
  }

  // Sign and host.
  auto& base_ref = managed(base_apex_);
  base_ref.signed_zone =
      zone::sign_zone(base_ref.unsigned_zone, base_ref.keys, base_ref.config,
                      now);
  host_everywhere(base_ref.signed_zone);

  if (parent_bogus) {
    // DS exists at the base, but the parent serves no DNSKEY (and hence no
    // signatures): the unfixable-from-the-child scenario.
    parent_ref.keys = zone::KeyStore(parent_apex_);
    parent_ref.signed_zone = parent_ref.unsigned_zone;
  } else {
    parent_ref.signed_zone = zone::sign_zone(
        parent_ref.unsigned_zone, parent_ref.keys, parent_ref.config, now);
  }
  host_everywhere(parent_ref.signed_zone);
}

void Sandbox::build_child(const dns::Name& apex,
                          const std::vector<ChildKeySpec>& key_specs,
                          const zone::SigningConfig& config,
                          crypto::DigestType ds_digest, std::uint32_t ttl) {
  const UnixTime now = clock_.now();
  child_apex_ = apex;

  ManagedZone child;
  child.config = config;
  child.unsigned_zone = zone::Zone(apex);
  child.unsigned_zone.add(apex, dns::RRType::kSOA, ttl, make_soa(apex));
  child.unsigned_zone.add(apex, dns::RRType::kNS, ttl,
                          dns::NsRdata{base_apex_.child("ns1")});
  child.unsigned_zone.add(apex, dns::RRType::kNS, ttl,
                          dns::NsRdata{base_apex_.child("ns2")});
  child.unsigned_zone.add(apex, dns::RRType::kA, ttl, ip(10, 0, 2, 10));
  dns::TxtRdata txt;
  txt.strings = {"replicated by ZReplicator"};
  child.unsigned_zone.add(apex, dns::RRType::kTXT, ttl, txt);
  child.unsigned_zone.add(apex.child("www"), dns::RRType::kA, ttl,
                          ip(10, 0, 2, 11));
  child.unsigned_zone.add(apex.child("mail"), dns::RRType::kA, ttl,
                          ip(10, 0, 2, 12));

  child.keys = zone::KeyStore(apex);
  Rng child_rng = rng_.fork("child-keys");
  for (const auto& spec : key_specs) {
    child.keys.generate(child_rng, spec.role, spec.algorithm, now, spec.bits);
  }
  zones_.insert_or_assign(apex, child);

  // Delegation NS + DS in the parent.
  auto& parent = managed(parent_apex_);
  parent.unsigned_zone.add(apex, dns::RRType::kNS, 3600,
                           dns::NsRdata{base_apex_.child("ns1")});
  parent.unsigned_zone.add(apex, dns::RRType::kNS, 3600,
                           dns::NsRdata{base_apex_.child("ns2")});
  auto& child_ref = managed(apex);
  for (const auto& key : child_ref.keys.keys()) {
    if (key.role() != zone::KeyRole::kKsk) continue;
    parent.unsigned_zone.add(apex, dns::RRType::kDS, 3600,
                             zone::make_ds(key, ds_digest));
  }
  if (!parent.keys.empty()) {
    parent.signed_zone =
        zone::sign_zone(parent.unsigned_zone, parent.keys, parent.config, now);
  } else {
    parent.signed_zone = parent.unsigned_zone;  // bogus-parent scenario
  }
  host_everywhere(parent.signed_zone);

  child_ref.signed_zone = zone::sign_zone(child_ref.unsigned_zone,
                                          child_ref.keys, child_ref.config,
                                          now);
  host_everywhere(child_ref.signed_zone);
}

void Sandbox::resign_and_sync(const dns::Name& apex) {
  auto& mz = managed(apex);
  mz.signed_zone =
      zone::sign_zone(mz.unsigned_zone, mz.keys, mz.config, clock_.now());
  farm_.sync_zone(mz.signed_zone);
}

void Sandbox::push_signed(const dns::Name& apex, zone::Zone signed_zone) {
  auto& mz = managed(apex);
  mz.signed_zone = std::move(signed_zone);
  farm_.sync_zone(mz.signed_zone);
}

void Sandbox::push_signed_to(const std::string& server,
                             const zone::Zone& signed_zone) {
  farm_.push_to_one(server, signed_zone);
}

void Sandbox::add_parent_ds(const dns::Name& child, const dns::DsRdata& ds) {
  auto& parent = managed(parent_apex_);
  parent.unsigned_zone.add(child, dns::RRType::kDS, 3600, ds);
  if (!parent.keys.empty()) {
    parent.signed_zone = zone::sign_zone(parent.unsigned_zone, parent.keys,
                                         parent.config, clock_.now());
  } else {
    parent.signed_zone = parent.unsigned_zone;
  }
  farm_.sync_zone(parent.signed_zone);
}

bool Sandbox::remove_parent_ds(const dns::Name& child, std::uint16_t key_tag,
                               const std::string& digest_hex) {
  auto& parent = managed(parent_apex_);
  auto* ds_set = parent.unsigned_zone.find(child, dns::RRType::kDS);
  if (ds_set == nullptr) return false;
  std::vector<dns::Rdata> to_remove;
  for (const auto& rdata : ds_set->rdatas()) {
    const auto* ds = std::get_if<dns::DsRdata>(&rdata);
    if (ds == nullptr || ds->key_tag != key_tag) continue;
    if (!digest_hex.empty() && hex_encode(ds->digest) != digest_hex) continue;
    to_remove.push_back(rdata);
  }
  if (to_remove.empty()) return false;
  for (const auto& rdata : to_remove) {
    parent.unsigned_zone.remove_rdata(child, dns::RRType::kDS, rdata);
  }
  if (!parent.keys.empty()) {
    parent.signed_zone = zone::sign_zone(parent.unsigned_zone, parent.keys,
                                         parent.config, clock_.now());
  } else {
    parent.signed_zone = parent.unsigned_zone;
  }
  farm_.sync_zone(parent.signed_zone);
  return true;
}

std::vector<std::string> Sandbox::export_to_directory(
    const std::string& directory) const {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  std::vector<std::string> written;
  const auto write_file = [&](const std::string& name,
                              const std::string& content) {
    const std::string path = directory + "/" + name;
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << content;
    written.push_back(path);
  };
  for (const auto& [apex, mz] : zones_) {
    const std::string base = "db." + apex.to_string();
    write_file(base + "unsigned",
               "; unsigned zone " + apex.to_string() + "\n$TTL 3600\n" +
                   dns::print_master_file(mz.unsigned_zone.to_records()));
    write_file(base + "signed",
               "; signed zone " + apex.to_string() + "\n$TTL 3600\n" +
                   dns::print_master_file(mz.signed_zone.to_records()));
    for (const auto& key : mz.keys.keys()) {
      const dns::ResourceRecord record{apex, dns::RRType::kDNSKEY,
                                       dns::RRClass::kIN, 3600,
                                       dns::Rdata(key.to_dnskey())};
      write_file(key.file_base() + ".key",
                 "; This is a " +
                     std::string(key.role() == zone::KeyRole::kKsk
                                     ? "key-signing key"
                                     : "zone-signing key") +
                     ", keyid " + std::to_string(key.tag()) + ", for " +
                     apex.to_string() + "\n" + record.to_text() + "\n");
    }
  }
  return written;
}

bool Sandbox::poll_cds(const dns::Name& child) {
  const auto* child_zone = find_managed(child);
  const auto* parent = find_managed(parent_apex_);
  if (child_zone == nullptr || parent == nullptr) return false;
  const auto& signed_child = child_zone->signed_zone;

  // 1. The child's published CDS set.
  const auto* cds_set = signed_child.find(child, dns::RRType::kCDS);
  if (cds_set == nullptr || cds_set->empty()) return false;

  // 2. Establish trust in the child's DNSKEY RRset via the *current*
  //    parent DS set (RFC 7344 §4.1: no bootstrap from a broken chain).
  const auto* parent_ds =
      parent->signed_zone.find(child, dns::RRType::kDS);
  const auto* dnskeys = signed_child.find(child, dns::RRType::kDNSKEY);
  if (parent_ds == nullptr || dnskeys == nullptr) return false;
  std::vector<const dns::DnskeyRdata*> sep_keys;
  for (const auto& ds_rdata : parent_ds->rdatas()) {
    const auto* ds = std::get_if<dns::DsRdata>(&ds_rdata);
    if (ds == nullptr) continue;
    for (const auto& key_rdata : dnskeys->rdatas()) {
      const auto* key = std::get_if<dns::DnskeyRdata>(&key_rdata);
      if (key == nullptr || key->is_revoked()) continue;
      if (key->key_tag() != ds->key_tag || key->algorithm != ds->algorithm) {
        continue;
      }
      const auto digest = crypto::ds_digest(
          static_cast<crypto::DigestType>(ds->digest_type),
          child.to_canonical_wire(),
          dns::rdata_to_wire(dns::Rdata(*key)));
      if (!digest.empty() && digest == ds->digest) sep_keys.push_back(key);
    }
  }
  if (sep_keys.empty()) return false;

  const auto rrset_validates =
      [&](const dns::RRset& rrset,
          const std::vector<const dns::DnskeyRdata*>& keys) {
        const auto* sigs = signed_child.find(child, dns::RRType::kRRSIG);
        if (sigs == nullptr) return false;
        for (const auto& sig_rdata : sigs->rdatas()) {
          const auto* sig = std::get_if<dns::RrsigRdata>(&sig_rdata);
          if (sig == nullptr || sig->type_covered != rrset.type()) continue;
          if (sig->expiration < clock_.now() ||
              sig->inception > clock_.now()) {
            continue;
          }
          for (const auto* key : keys) {
            if (key->key_tag() == sig->key_tag &&
                zone::verify_rrsig(rrset, *sig, *key)) {
              return true;
            }
          }
        }
        return false;
      };
  // DNSKEY RRset must be signed by a DS-anchored key...
  if (!rrset_validates(*dnskeys, sep_keys)) return false;
  // ...and the CDS RRset by any key in the (now trusted) DNSKEY set.
  std::vector<const dns::DnskeyRdata*> all_keys;
  for (const auto& key_rdata : dnskeys->rdatas()) {
    const auto* key = std::get_if<dns::DnskeyRdata>(&key_rdata);
    if (key != nullptr) all_keys.push_back(key);
  }
  if (!rrset_validates(*cds_set, all_keys)) return false;

  // 3. Accepted: the CDS contents become the parent's DS set.
  auto& parent_mut = managed(parent_apex_);
  parent_mut.unsigned_zone.remove(child, dns::RRType::kDS);
  for (const auto& rdata : cds_set->rdatas()) {
    const auto* cds = std::get_if<dns::CdsRdata>(&rdata);
    if (cds != nullptr) {
      parent_mut.unsigned_zone.add(child, dns::RRType::kDS, 3600, cds->ds);
    }
  }
  if (!parent_mut.keys.empty()) {
    parent_mut.signed_zone =
        zone::sign_zone(parent_mut.unsigned_zone, parent_mut.keys,
                        parent_mut.config, clock_.now());
  } else {
    parent_mut.signed_zone = parent_mut.unsigned_zone;
  }
  farm_.sync_zone(parent_mut.signed_zone);
  return true;
}

std::vector<dns::Name> Sandbox::chain() const {
  std::vector<dns::Name> out = {base_apex_, parent_apex_};
  if (zones_.find(child_apex_) != zones_.end()) out.push_back(child_apex_);
  return out;
}

Sandbox::ZoneKey Sandbox::zone_key(const std::vector<dns::Name>& zones,
                                   std::size_t position,
                                   analyzer::TrustState incoming,
                                   UnixTime now,
                                   std::uint64_t hosting_version) const {
  ZoneKey key;
  key.hosting_version = hosting_version;
  key.incoming = incoming;
  key.apex = zones[position];
  key.now = now;
  key.position = position;
  key.is_target = position + 1 == zones.size();
  for (const auto* server : farm_.servers_for(key.apex)) {
    key.servers.push_back(
        {server->name(), analyzer::probe_stamp(*server, key.apex)});
  }
  if (position > 0) {
    key.parent_apex = zones[position - 1];
    for (const auto* server : farm_.servers_for(*key.parent_apex)) {
      key.parent_servers.push_back(
          {server->name(),
           analyzer::parent_probe_stamp(*server, *key.parent_apex)});
    }
  }
  return key;
}

analyzer::Snapshot Sandbox::analyze() {
  static auto& memo_hits = metrics::Registry::global().counter(
      "zreplicator.analysis_memo_hits");
  static auto& zone_hits =
      metrics::Registry::global().counter("zreplicator.zone_memo_hits");
  static auto& zone_misses =
      metrics::Registry::global().counter("zreplicator.zone_memo_misses");
  const std::vector<dns::Name> zones = chain();
  const UnixTime now = clock_.now();
  const std::uint64_t hosting_version = farm_.hosting_version();
  const analyzer::GrokConfig config;
  zone_memo_.resize(zones.size());
  std::vector<const analyzer::ZoneVerdict*> verdicts;
  analyzer::TrustState state = analyzer::TrustState::kSecure;
  bool all_hit = true;
  for (std::size_t i = 0; i < zones.size(); ++i) {
    const auto fresh = [&] {
      return analyzer::grok_zone(analyzer::probe_zone(farm_, zones, i), state,
                                 i == 0 ? nullptr : &zones[i - 1], now,
                                 config, i + 1 == zones.size());
    };
    ZoneKey key = zone_key(zones, i, state, now, hosting_version);
    ZoneMemo& memo = zone_memo_[i];
    if (memo.key == key) {
      zone_hits.add(1);
      DFX_DCHECK(memo.verdict.same_as(fresh()),
                 "Sandbox::analyze() zone memo hit differs from a fresh "
                 "verdict");
    } else {
      zone_misses.add(1);
      all_hit = false;
      memo.verdict = fresh();
      memo.key = std::move(key);
      analyzer::count_grok_work(memo.verdict);
    }
    verdicts.push_back(&memo.verdict);
    if (memo.verdict.stop != analyzer::ZoneVerdict::Stop::kNone) break;
    state = memo.verdict.state;
  }
  if (all_hit) memo_hits.add(1);
  // dfx-lint: allow(unchecked-front-back): chain() always holds the base and parent.
  return analyzer::fold_verdicts(child_apex_, zones.back(), now, verdicts);
}

bool Sandbox::apply(const zone::BindCommand& command) {
  using zone::CommandKind;
  const auto arg = [&](const std::string& key,
                       const std::string& dflt) -> std::string {
    const auto it = command.args.find(key);
    return it == command.args.end() ? dflt : it->second;
  };
  auto zone_name = dns::Name::parse(arg("zone", child_apex_.to_string()));
  if (!zone_name) return false;
  // Only zones we manage can be touched (real operators cannot fix foreign
  // zones).
  if (zones_.find(*zone_name) == zones_.end() &&
      command.kind != CommandKind::kWaitTtl) {
    return false;
  }

  switch (command.kind) {
    case CommandKind::kDnssecKeygen: {
      auto& mz = managed(*zone_name);
      const int algo_number = std::stoi(arg("algorithm_number", "8"));
      const auto info = crypto::algorithm_info(
          static_cast<std::uint8_t>(algo_number));
      if (!info || !info->supported_by_bind) return false;
      const bool ksk = arg("ksk", "0") == "1";
      const std::size_t bits =
          static_cast<std::size_t>(std::stoul(arg("bits", "0")));
      Rng keygen_rng = rng_.fork("keygen");
      auto& key = mz.keys.generate(
          keygen_rng, ksk ? zone::KeyRole::kKsk : zone::KeyRole::kZsk,
          info->number, clock_.now(), bits);
      if (ksk) last_generated_ksk_ = key.tag();
      return true;
    }
    case CommandKind::kDnssecSignzone: {
      auto& mz = managed(*zone_name);
      mz.config.denial = arg("nsec3", "0") == "1" ? zone::DenialMode::kNsec3
                                                  : zone::DenialMode::kNsec;
      mz.config.nsec3_iterations =
          static_cast<std::uint16_t>(std::stoul(arg("iterations", "0")));
      const std::string salt_hex = arg("salt", "-");
      auto salt = hex_decode(salt_hex);
      mz.config.nsec3_salt = salt ? *salt : Bytes{};
      mz.config.nsec3_opt_out = arg("optout", "0") == "1";
      // Restore default validity in case an injector shrank it.
      mz.config.inception_offset = kHour;
      mz.config.validity = 30 * kDay;
      resign_and_sync(*zone_name);
      return true;
    }
    case CommandKind::kDnssecSettime: {
      auto& mz = managed(*zone_name);
      const auto tag =
          static_cast<std::uint16_t>(std::stoul(arg("key_tag", "0")));
      auto* key = mz.keys.find_by_tag(tag);
      // A DNSKEY seen in the zone but absent from the key directory (e.g.
      // injected garbage) has no key file; it disappears at the next
      // re-sign, so the command is a no-op rather than a failure.
      if (key == nullptr) return true;
      if (arg("flag", "D") == "D") {
        key->set_delete_time(clock_.now());
      } else {
        key->set_revoked(true);
      }
      return true;
    }
    case CommandKind::kDnssecDsFromKey:
      return true;  // informational: prints the DS record
    case CommandKind::kUploadDsToParent: {
      auto& mz = managed(*zone_name);
      auto tag = static_cast<std::uint16_t>(std::stoul(arg("key_tag", "0")));
      if (tag == 0 && last_generated_ksk_) tag = *last_generated_ksk_;
      const auto* key = mz.keys.find_by_tag(tag);
      if (key == nullptr) {
        // Fall back to any active KSK.
        const auto ksks =
            mz.keys.active_with_role(clock_.now(), zone::KeyRole::kKsk);
        if (ksks.empty()) return false;
        key = ksks.front();
      }
      const auto digest =
          static_cast<crypto::DigestType>(std::stoi(arg("digest", "2")));
      add_parent_ds(*zone_name, zone::make_ds(*key, digest));
      return true;
    }
    case CommandKind::kRemoveDsFromParent: {
      const auto tag =
          static_cast<std::uint16_t>(std::stoul(arg("key_tag", "0")));
      return remove_parent_ds(*zone_name, tag, arg("digest_hex", ""));
    }
    case CommandKind::kSyncServers: {
      // Push the primary's current copy to every server.
      resign_and_sync(*zone_name);
      return true;
    }
    case CommandKind::kReduceTtl: {
      auto& mz = managed(*zone_name);
      const auto ttl =
          static_cast<std::uint32_t>(std::stoul(arg("ttl", "3600")));
      zone::Zone updated(mz.unsigned_zone.apex());
      for (const auto* rrset : mz.unsigned_zone.all_rrsets()) {
        dns::RRset copy = *rrset;
        if (copy.ttl() > ttl) copy.set_ttl(ttl);
        updated.put(std::move(copy));
      }
      mz.unsigned_zone = std::move(updated);
      return true;
    }
    case CommandKind::kWaitTtl: {
      clock_.advance(std::stol(arg("seconds", "0")));
      return true;
    }
    case CommandKind::kRemoveKeyFile: {
      auto& mz = managed(*zone_name);
      return mz.keys.remove_by_tag(
          static_cast<std::uint16_t>(std::stoul(arg("key_tag", "0"))));
    }
    case CommandKind::kPublishCds: {
      auto& mz = managed(*zone_name);
      mz.config.publish_cds = true;
      resign_and_sync(*zone_name);
      // The registrar's parental agent polls on its own schedule; the
      // sandbox polls immediately.
      return poll_cds(*zone_name);
    }
  }
  return false;
}

}  // namespace dfx::zreplicator
