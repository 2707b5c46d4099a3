// Authoritative-server answer-logic tests: positive answers, referrals,
// negative answers with proofs, lameness, the parent-side view, and
// randomized differentials of the DenialIndex answer path and of
// find_hosted's zone choice against linear reference selections.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "authserver/farm.h"
#include "util/codec.h"
#include "util/rng.h"
#include "zone/nsec3.h"
#include "zone/signer.h"

namespace dfx::authserver {
namespace {

using dns::Name;
using dns::RRType;

constexpr UnixTime kNow = kDatasetStart;

struct Fixture {
  Name parent_apex = Name::of("test.");
  Name apex = Name::of("example.test.");
  zone::KeyStore keys{apex};
  zone::Zone signed_zone{apex};
  zone::Zone parent{parent_apex};
  ServerFarm farm;
  Rng rng{55};

  explicit Fixture(zone::DenialMode denial = zone::DenialMode::kNsec) {
    zone::Zone unsigned_zone(apex);
    dns::SoaRdata soa;
    soa.mname = apex.child("ns1");
    soa.rname = apex.child("hostmaster");
    unsigned_zone.add(apex, RRType::kSOA, 3600, soa);
    unsigned_zone.add(apex, RRType::kNS, 3600,
                      dns::NsRdata{apex.child("ns1")});
    dns::ARdata a;
    a.address = {192, 0, 2, 1};
    unsigned_zone.add(apex.child("ns1"), RRType::kA, 3600, a);
    unsigned_zone.add(apex.child("www"), RRType::kA, 3600, a);
    unsigned_zone.add(apex.child("alias"), RRType::kCNAME, 3600,
                      dns::CnameRdata{apex.child("www")});
    keys.generate(rng, zone::KeyRole::kKsk,
                  crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
    keys.generate(rng, zone::KeyRole::kZsk,
                  crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
    zone::SigningConfig config;
    config.denial = denial;
    signed_zone = zone::sign_zone(unsigned_zone, keys, config, kNow);

    dns::SoaRdata psoa;
    psoa.mname = parent_apex.child("ns1");
    psoa.rname = parent_apex.child("hostmaster");
    parent.add(parent_apex, RRType::kSOA, 3600, psoa);
    parent.add(parent_apex, RRType::kNS, 3600,
               dns::NsRdata{parent_apex.child("ns1")});
    parent.add(apex, RRType::kNS, 3600, dns::NsRdata{apex.child("ns1")});
    const auto* ksk = keys.active_with_role(kNow, zone::KeyRole::kKsk)[0];
    parent.add(apex, RRType::kDS, 3600,
               zone::make_ds(*ksk, crypto::DigestType::kSha256));

    farm.host_zone({"ns1"}, signed_zone);
    farm.host_zone({"ns1"}, parent);
  }

  AuthServer& server() { return farm.server("ns1"); }
};

TEST(AuthServer, PositiveAnswerWithSignatures) {
  Fixture f;
  const auto result = f.server().query(f.apex.child("www"), RRType::kA);
  EXPECT_EQ(result.rcode, dns::RCode::kNoError);
  EXPECT_TRUE(result.authoritative);
  bool saw_a = false;
  bool saw_rrsig = false;
  for (const auto& rr : result.answers) {
    saw_a = saw_a || rr.type == RRType::kA;
    saw_rrsig = saw_rrsig || rr.type == RRType::kRRSIG;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_rrsig);
}

TEST(AuthServer, CnameAnswersOtherTypes) {
  Fixture f;
  const auto result = f.server().query(f.apex.child("alias"), RRType::kA);
  EXPECT_EQ(result.rcode, dns::RCode::kNoError);
  ASSERT_FALSE(result.answers.empty());
  EXPECT_EQ(result.answers.front().type, RRType::kCNAME);
}

TEST(AuthServer, NxdomainCarriesNsecProofs) {
  Fixture f;
  const auto result =
      f.server().query(f.apex.child("no-such-name"), RRType::kA);
  EXPECT_EQ(result.rcode, dns::RCode::kNXDomain);
  const auto proofs = result.negative_proofs();
  bool saw_nsec = false;
  for (const auto& rr : proofs) saw_nsec |= rr.type == RRType::kNSEC;
  EXPECT_TRUE(saw_nsec);
  // SOA in authority for negative caching.
  bool saw_soa = false;
  for (const auto& rr : result.authorities) saw_soa |= rr.type == RRType::kSOA;
  EXPECT_TRUE(saw_soa);
}

TEST(AuthServer, NxdomainCarriesNsec3ClosestEncloserProof) {
  Fixture f(zone::DenialMode::kNsec3);
  const auto result =
      f.server().query(f.apex.child("no-such-name"), RRType::kA);
  EXPECT_EQ(result.rcode, dns::RCode::kNXDomain);
  int nsec3_count = 0;
  for (const auto& rr : result.authorities) {
    if (rr.type == RRType::kNSEC3) ++nsec3_count;
  }
  // Closest-encloser match + next-closer cover + wildcard cover (some may
  // coincide, but at least one record must be present).
  EXPECT_GE(nsec3_count, 1);
}

TEST(AuthServer, NodataCarriesMatchingProof) {
  Fixture f;
  const auto result = f.server().query(f.apex, RRType::kMX);
  EXPECT_EQ(result.rcode, dns::RCode::kNoError);
  EXPECT_TRUE(result.answers.empty());
  bool saw_apex_nsec = false;
  for (const auto& rr : result.authorities) {
    if (rr.type == RRType::kNSEC && rr.owner == f.apex) saw_apex_nsec = true;
  }
  EXPECT_TRUE(saw_apex_nsec);
}

TEST(AuthServer, LameServerDoesNotRespond) {
  Fixture f;
  f.server().set_lame(true);
  const auto result = f.server().query(f.apex, RRType::kSOA);
  EXPECT_FALSE(result.reachable);
}

TEST(AuthServer, RefusesUnhostedZones) {
  Fixture f;
  const auto result =
      f.server().query(dns::Name::of("other.org."), RRType::kA);
  EXPECT_EQ(result.rcode, dns::RCode::kRefused);
}

TEST(AuthServer, ApexDsServedFromParentSide) {
  Fixture f;
  // The server hosts both sides of the cut; a DS query for the child apex
  // must be answered from the parent zone.
  const auto result = f.server().query(f.apex, RRType::kDS);
  EXPECT_EQ(result.rcode, dns::RCode::kNoError);
  bool saw_ds = false;
  for (const auto& rr : result.answers) saw_ds |= rr.type == RRType::kDS;
  EXPECT_TRUE(saw_ds);
}

TEST(AuthServer, QueryInZoneForcesParentView) {
  Fixture f;
  const auto result =
      f.server().query_in_zone(f.parent_apex, f.apex, RRType::kNS);
  // From the parent's perspective this is a referral: NS in authority.
  bool saw_delegation_ns = false;
  for (const auto& rr : result.authorities) {
    if (rr.type == RRType::kNS && rr.owner == f.apex) {
      saw_delegation_ns = true;
    }
  }
  EXPECT_TRUE(saw_delegation_ns);
  // And the zone apex itself answers authoritatively.
  const auto direct = f.server().query_in_zone(f.apex, f.apex, RRType::kNS);
  EXPECT_FALSE(direct.answers.empty());
}

TEST(AuthServer, ReferralIncludesDsAndGlue) {
  Fixture f;
  const auto result = f.server().query_in_zone(
      f.parent_apex, f.apex.child("www"), RRType::kA);
  EXPECT_FALSE(result.authoritative);
  bool saw_ns = false;
  bool saw_ds = false;
  for (const auto& rr : result.authorities) {
    saw_ns |= rr.type == RRType::kNS;
    saw_ds |= rr.type == RRType::kDS;
  }
  EXPECT_TRUE(saw_ns);
  EXPECT_TRUE(saw_ds);
}

TEST(ServerFarm, SyncAndDivergence) {
  Fixture f;
  f.farm.host_zone({"ns2"}, f.signed_zone);
  // Mutate a copy and push to one server only.
  zone::Zone altered = f.signed_zone;
  altered.remove(f.apex, RRType::kDNSKEY);
  f.farm.push_to_one("ns2", altered);
  EXPECT_NE(f.farm.server("ns1").zone_data(f.apex)->find(f.apex,
                                                         RRType::kDNSKEY),
            nullptr);
  EXPECT_EQ(f.farm.server("ns2").zone_data(f.apex)->find(f.apex,
                                                         RRType::kDNSKEY),
            nullptr);
  // sync_zone restores convergence.
  f.farm.sync_zone(f.signed_zone);
  EXPECT_NE(f.farm.server("ns2").zone_data(f.apex)->find(f.apex,
                                                         RRType::kDNSKEY),
            nullptr);
}

TEST(ServerFarm, ServersForListsHosts) {
  Fixture f;
  f.farm.host_zone({"ns2"}, f.signed_zone);
  EXPECT_EQ(f.farm.servers_for(f.apex).size(), 2u);
  EXPECT_EQ(f.farm.servers_for(dns::Name::of("nope.")).size(), 0u);
}


// ---------------------------------------------------------------------------
// DenialIndex vs a linear reference
//
// The reference below is the answer path as it was before the index: every
// negative answer rescans the zone, sorts the chain and searches it
// linearly for the predecessor. NSEC3 ties keep canonical owner order.

namespace reference {

void add_rrset_with_sigs(const zone::Zone& zone, const Name& owner,
                         RRType type, Section& section) {
  const auto* rrset = zone.find(owner, type);
  if (rrset == nullptr) return;
  for (const auto& rr : rrset->to_records()) section.push_back(rr);
  const auto* sigs = zone.find(owner, RRType::kRRSIG);
  if (sigs == nullptr) return;
  for (const auto& rdata : sigs->rdatas()) {
    const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
    if (sig != nullptr && sig->type_covered == type) {
      section.push_back(dns::ResourceRecord{owner, RRType::kRRSIG,
                                            dns::RRClass::kIN, sigs->ttl(),
                                            rdata});
    }
  }
}

void add_nsec_proofs(const zone::Zone& zone, const Name& qname,
                     bool nxdomain, QueryResult& result) {
  std::vector<Name> chain;
  for (const auto* rrset : zone.all_rrsets()) {
    if (rrset->type() != RRType::kNSEC || rrset->empty()) continue;
    if (std::holds_alternative<dns::NsecRdata>(rrset->rdatas().front())) {
      chain.push_back(rrset->owner());
    }
  }
  std::sort(chain.begin(), chain.end());
  const auto emit = [&](const Name& owner) {
    add_rrset_with_sigs(zone, owner, RRType::kNSEC, result.authorities);
  };
  const auto predecessor = [&](const Name& name) -> const Name* {
    const Name* best = nullptr;
    for (const auto& owner : chain) {
      if (owner <= name) best = &owner;
    }
    if (best == nullptr && !chain.empty()) best = &chain.back();
    return best;
  };
  if (chain.empty()) return;
  if (!nxdomain) {
    if (std::find(chain.begin(), chain.end(), qname) != chain.end()) {
      emit(qname);
      return;
    }
  }
  if (const auto* cover = predecessor(qname)) emit(*cover);
  if (nxdomain) {
    if (const auto* cover = predecessor(zone.apex().child("*"))) emit(*cover);
  }
}

void add_nsec3_proofs(const zone::Zone& zone, const Name& qname,
                      bool nxdomain, QueryResult& result) {
  const auto* param_set = zone.find(zone.apex(), RRType::kNSEC3PARAM);
  if (param_set == nullptr || param_set->empty()) return;
  const auto* param =
      std::get_if<dns::Nsec3ParamRdata>(&param_set->rdatas().front());
  if (param == nullptr) return;
  struct Entry {
    Name owner;
    Bytes hash;
  };
  std::vector<Entry> chain;
  std::vector<Name> undecodable;
  for (const auto* rrset : zone.all_rrsets()) {
    if (rrset->type() != RRType::kNSEC3 || rrset->empty()) continue;
    if (!std::holds_alternative<dns::Nsec3Rdata>(rrset->rdatas().front())) {
      continue;
    }
    auto decoded = base32hex_decode(rrset->owner().leftmost_label());
    if (!decoded) {
      undecodable.push_back(rrset->owner());
      continue;
    }
    chain.push_back({rrset->owner(), *std::move(decoded)});
  }
  std::stable_sort(chain.begin(), chain.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.hash < b.hash;
                   });
  const auto emit = [&](const Name& owner) {
    add_rrset_with_sigs(zone, owner, RRType::kNSEC3, result.authorities);
  };
  const auto hash_of = [&](const Name& name) {
    return zone::nsec3_hash(name, param->salt, param->iterations);
  };
  const auto emit_match = [&](const Name& name) {
    const Bytes h = hash_of(name);
    for (const auto& e : chain) {
      if (e.hash == h) {
        emit(e.owner);
        return;
      }
    }
  };
  const auto emit_cover = [&](const Name& name) {
    if (chain.empty()) return;
    const Bytes h = hash_of(name);
    const Entry* best = &chain.back();
    for (const auto& e : chain) {
      if (e.hash <= h) best = &e;
    }
    emit(best->owner);
  };
  for (const auto& owner : undecodable) emit(owner);
  if (!nxdomain) {
    emit_match(qname);
    return;
  }
  Name closest = qname;
  while (closest.label_count() > zone.apex().label_count()) {
    closest = closest.parent();
    if (zone.name_exists(closest) || zone.name_or_descendant_exists(closest) ||
        closest == zone.apex()) {
      break;
    }
  }
  emit_match(closest);
  Name next_closer = qname;
  while (next_closer.label_count() > closest.label_count() + 1) {
    next_closer = next_closer.parent();
  }
  emit_cover(next_closer);
  emit_cover(closest.child("*"));
}

void add_denial_proofs(const zone::Zone& zone, const Name& qname,
                       bool nxdomain, QueryResult& result) {
  if (zone.find(zone.apex(), RRType::kNSEC3PARAM) != nullptr) {
    add_nsec3_proofs(zone, qname, nxdomain, result);
  } else {
    add_nsec_proofs(zone, qname, nxdomain, result);
  }
}

QueryResult answer(const zone::Zone& zone, const Name& qname, RRType qtype) {
  QueryResult result;
  result.authoritative = true;
  const auto cut = zone.covering_delegation(qname);
  if (cut && !(qname == *cut && qtype == RRType::kDS)) {
    result.authoritative = false;
    const auto* ns = zone.find(*cut, RRType::kNS);
    for (const auto& rr : ns->to_records()) result.authorities.push_back(rr);
    if (zone.find(*cut, RRType::kDS) != nullptr) {
      add_rrset_with_sigs(zone, *cut, RRType::kDS, result.authorities);
    } else {
      add_denial_proofs(zone, *cut, /*nxdomain=*/false, result);
    }
    for (const auto& rdata : ns->rdatas()) {
      const auto* nsr = std::get_if<dns::NsRdata>(&rdata);
      if (nsr == nullptr) continue;
      for (RRType glue_type : {RRType::kA, RRType::kAAAA}) {
        if (const auto* glue = zone.find(nsr->nsdname, glue_type)) {
          for (const auto& rr : glue->to_records()) {
            result.additionals.push_back(rr);
          }
        }
      }
    }
    return result;
  }
  if (zone.find(qname, qtype) != nullptr) {
    add_rrset_with_sigs(zone, qname, qtype, result.answers);
    return result;
  }
  if (qtype != RRType::kCNAME && zone.find(qname, RRType::kCNAME) != nullptr) {
    add_rrset_with_sigs(zone, qname, RRType::kCNAME, result.answers);
    return result;
  }
  const auto negative = [&](bool nxdomain) {
    result.rcode = nxdomain ? dns::RCode::kNXDomain : dns::RCode::kNoError;
    add_rrset_with_sigs(zone, zone.apex(), RRType::kSOA, result.authorities);
    add_denial_proofs(zone, qname, nxdomain, result);
    return result;
  };
  if (zone.name_exists(qname) || zone.name_or_descendant_exists(qname)) {
    return negative(/*nxdomain=*/false);
  }
  Name closest = qname.parent();
  while (closest.label_count() > zone.apex().label_count() &&
         !zone.name_or_descendant_exists(closest)) {
    closest = closest.parent();
  }
  const Name wildcard = closest.child("*");
  const auto* rrset = zone.find(wildcard, qtype);
  if (rrset == nullptr) return negative(/*nxdomain=*/true);
  for (const auto& rdata : rrset->rdatas()) {
    result.answers.push_back(
        dns::ResourceRecord{qname, qtype, dns::RRClass::kIN, rrset->ttl(),
                            rdata});
  }
  if (const auto* sigs = zone.find(wildcard, RRType::kRRSIG)) {
    for (const auto& rdata : sigs->rdatas()) {
      const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
      if (sig != nullptr && sig->type_covered == qtype) {
        result.answers.push_back(dns::ResourceRecord{
            qname, RRType::kRRSIG, dns::RRClass::kIN, sigs->ttl(), rdata});
      }
    }
  }
  add_denial_proofs(zone, qname, /*nxdomain=*/true, result);
  return result;
}

}  // namespace reference

std::string render(const QueryResult& r) {
  std::string out = "rcode=" + std::to_string(static_cast<int>(r.rcode)) +
                    " aa=" + std::to_string(r.authoritative) + "\n";
  for (const auto* section : {&r.answers, &r.authorities, &r.additionals}) {
    out += "--\n";
    for (const auto& rr : *section) out += rr.to_text() + "\n";
  }
  return out;
}

/// A label of 1-3 letters from a small alphabet, so random names collide
/// with existing ones often.
std::string random_label(Rng& rng) {
  static constexpr char kAlphabet[] = "abcdefgh";
  std::string label;
  const std::uint64_t length = 1 + rng.uniform(3);
  for (std::uint64_t i = 0; i < length; ++i) {
    label.push_back(kAlphabet[rng.uniform(sizeof kAlphabet - 1)]);
  }
  return label;
}

Name random_name(Rng& rng, const Name& apex, std::uint64_t max_depth) {
  Name name = apex;
  const std::uint64_t depth = 1 + rng.uniform(max_depth);
  for (std::uint64_t i = 0; i < depth; ++i) {
    name = name.child(random_label(rng));
  }
  return name;
}

/// Random case, to check that proofs go out under the query's spelling
/// exactly where the reference puts them.
Name random_spelling(Rng& rng, const Name& name) {
  std::string text = name.to_string();
  for (char& c : text) {
    if (rng.chance(0.3)) c = static_cast<char>(std::toupper(c));
  }
  return Name::of(text);
}

/// A random signed zone: names up to three labels deep (so empty
/// non-terminals), wildcards, delegations with and without DS, and then
/// damage to the denial chain.
zone::Zone random_zone(Rng& rng, const Name& apex, zone::KeyStore& keys,
                       bool nsec3) {
  zone::Zone z(apex);
  dns::SoaRdata soa;
  soa.mname = apex.child("ns1");
  soa.rname = apex.child("hostmaster");
  z.add(apex, RRType::kSOA, 3600, soa);
  z.add(apex, RRType::kNS, 3600, dns::NsRdata{apex.child("ns1")});
  z.add(apex.child("ns1"), RRType::kA, 3600, dns::ARdata{{192, 0, 2, 1}});
  const std::uint64_t names = 4 + rng.uniform(24);
  for (std::uint64_t i = 0; i < names; ++i) {
    const Name owner = random_name(rng, apex, 3);
    if (rng.chance(0.5)) {
      z.add(owner, RRType::kA, 3600,
            dns::ARdata{{10, 0, 0, static_cast<std::uint8_t>(i)}});
    } else {
      z.add(owner, RRType::kTXT, 3600,
            dns::TxtRdata{{"t" + std::to_string(i)}});
    }
  }
  for (std::uint64_t i = rng.uniform(3); i > 0; --i) {
    const Name parent = rng.chance(0.5) ? apex : random_name(rng, apex, 2);
    z.add(parent.child("*"), RRType::kA, 3600, dns::ARdata{{10, 1, 1, 1}});
  }
  for (std::uint64_t i = rng.uniform(3); i > 0; --i) {
    const Name cut = random_name(rng, apex, 2);
    z.add(cut, RRType::kNS, 3600, dns::NsRdata{cut.child("ns")});
    z.add(cut.child("ns"), RRType::kA, 3600, dns::ARdata{{192, 0, 2, 9}});
    if (rng.chance(0.5)) {
      dns::DsRdata ds;
      ds.key_tag = 1;
      ds.algorithm = 13;
      ds.digest.assign(32, 0x22);
      z.add(cut, RRType::kDS, 3600, ds);
    }
  }
  zone::SigningConfig config;
  config.denial = nsec3 ? zone::DenialMode::kNsec3 : zone::DenialMode::kNsec;
  config.nsec3_iterations = static_cast<std::uint16_t>(rng.uniform(3));
  if (rng.chance(0.5)) config.nsec3_salt = {0xAB, 0xCD};
  zone::Zone signed_zone = zone::sign_zone(z, keys, config, kNow);

  // Damage: drop chain records at random owners.
  const RRType chain_type = nsec3 ? RRType::kNSEC3 : RRType::kNSEC;
  std::vector<Name> chain_owners;
  for (const auto* rrset : signed_zone.all_rrsets()) {
    if (rrset->type() == chain_type) chain_owners.push_back(rrset->owner());
  }
  for (const auto& owner : chain_owners) {
    if (rng.chance(0.15)) signed_zone.remove(owner, chain_type);
  }
  if (nsec3 && !chain_owners.empty()) {
    // Any NSEC3 rdata will do: the server never reads it.
    const dns::Rdata rdata = dns::Nsec3Rdata{};
    // Owners whose first label is not base32hex.
    for (std::uint64_t i = rng.uniform(3); i > 0; --i) {
      signed_zone.add(apex.child("zz" + random_label(rng)), RRType::kNSEC3,
                      3600, rdata);
    }
    // Decodable first labels that are not SHA-1's 32 characters: a
    // prefix of a real owner's label (equal up to the shorter hash; one
    // character decodes to the empty hash) and an extension of one (a
    // longer hash that starts the same).
    if (rng.chance(0.5)) {
      const std::string label =
          chain_owners[rng.uniform(chain_owners.size())].leftmost_label();
      signed_zone.add(apex.child(label.substr(0, 1 + rng.uniform(29))),
                      RRType::kNSEC3, 3600, rdata);
      signed_zone.add(apex.child(label + "0v"), RRType::kNSEC3, 3600, rdata);
    }
    // Hash ties: the same first label under another parent.
    if (rng.chance(0.5)) {
      const Name& owner = chain_owners[rng.uniform(chain_owners.size())];
      signed_zone.add(apex.child("h").child(owner.leftmost_label()),
                      RRType::kNSEC3, 3600, rdata);
    }
  }
  return signed_zone;
}

void remove_type(zone::Zone& z, RRType type) {
  for (const Name& owner : z.owner_names()) z.remove(owner, type);
}

/// Edit `z` outside its denial chain, as an incremental re-sign or a hand
/// edit does: bump the SOA serial, re-put the apex RRSIGs (without their
/// last rdata when there are several), add an address at a random name
/// and drop one random RRset that is neither a chain RRset nor the SOA.
void edit_outside_chain(Rng& rng, zone::Zone& z) {
  z.bump_serial();
  if (const dns::RRset* sigs = z.find(z.apex(), RRType::kRRSIG)) {
    dns::RRset resigned(z.apex(), RRType::kRRSIG, sigs->ttl());
    const std::size_t keep = sigs->size() > 1 ? sigs->size() - 1 : 1;
    for (std::size_t i = 0; i < keep; ++i) resigned.add(sigs->rdatas()[i]);
    z.put(std::move(resigned));
  }
  z.add(random_name(rng, z.apex(), 3), RRType::kA, 60,
        dns::ARdata{{10, 9, 9, 9}});
  std::vector<std::pair<Name, RRType>> others;
  for (const auto* rrset : z.all_rrsets()) {
    const RRType type = rrset->type();
    if (type != RRType::kNSEC && type != RRType::kNSEC3 &&
        type != RRType::kNSEC3PARAM && type != RRType::kSOA) {
      others.emplace_back(rrset->owner(), type);
    }
  }
  if (!others.empty()) {
    const auto& [owner, type] = others[rng.uniform(others.size())];
    EXPECT_TRUE(z.remove(owner, type));
  }
}

struct Shape {
  const char* label;
  bool nsec3;
  void (*edit)(zone::Zone&);
};

TEST(DenialIndex, MatchesLinearReferenceOnRandomZones) {
  const Name apex = Name::of("example.test.");
  Rng rng{2026};
  zone::KeyStore keys{apex};
  keys.generate(rng, zone::KeyRole::kKsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
  keys.generate(rng, zone::KeyRole::kZsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
  const Shape shapes[] = {
      {"nsec", false, [](zone::Zone&) {}},
      {"nsec3", true, [](zone::Zone&) {}},
      {"nsec3param without nsec3 records", true,
       [](zone::Zone& z) { remove_type(z, RRType::kNSEC3); }},
      {"empty nsec chain", false,
       [](zone::Zone& z) { remove_type(z, RRType::kNSEC); }},
      {"nsec3 records without nsec3param", true,
       [](zone::Zone& z) { z.remove(z.apex(), RRType::kNSEC3PARAM); }},
      {"empty nsec3param rrset", false,
       [](zone::Zone& z) {
         z.put(dns::RRset(z.apex(), RRType::kNSEC3PARAM, 0));
       }},
      {"nsec3param that is not one", false,
       [](zone::Zone& z) {
         z.add(z.apex(), RRType::kNSEC3PARAM, 0, dns::TxtRdata{{"bogus"}});
       }},
  };
  const RRType qtypes[] = {RRType::kA,    RRType::kTXT,  RRType::kMX,
                           RRType::kNS,   RRType::kDS,   RRType::kSOA,
                           RRType::kNSEC, RRType::kNSEC3, RRType::kCNAME};
  int compared = 0;
  int negative = 0;
  for (int round = 0; round < 8; ++round) {
    for (const Shape& shape : shapes) {
      zone::Zone z = random_zone(rng, apex, keys, shape.nsec3);
      shape.edit(z);
      const DenialIndex index(z);
      // A later version edited outside the chain inherits the index of the
      // one hosted before it, and answers from it.
      const auto hosted = load_version(z);
      zone::Zone edited = hosted->zone;
      edit_outside_chain(rng, edited);
      const auto inherited = load_version(std::move(edited), hosted.get());
      ASSERT_EQ(inherited->denial, hosted->denial) << shape.label;
      std::vector<Name> owners = z.owner_names();
      for (int q = 0; q < 60; ++q) {
        Name qname;
        switch (rng.uniform(4)) {
          case 0:
            qname = owners[rng.uniform(owners.size())];
            break;
          case 1:
            qname = owners[rng.uniform(owners.size())].child(random_label(rng));
            break;
          case 2:
            qname = apex;
            break;
          default:
            qname = random_name(rng, apex, 4);
            break;
        }
        if (rng.chance(0.3)) qname = random_spelling(rng, qname);
        const RRType qtype = qtypes[rng.uniform(std::size(qtypes))];
        const std::string want = render(reference::answer(z, qname, qtype));
        const QueryResult got = answer(z, index, qname, qtype);
        ASSERT_EQ(render(got), want)
            << shape.label << " round " << round << " " << qname.to_string()
            << " " << static_cast<int>(qtype);
        ASSERT_EQ(render(answer(inherited, qname, qtype)),
                  render(reference::answer(inherited->zone, qname, qtype)))
            << "inherited index: " << shape.label << " round " << round
            << " " << qname.to_string() << " " << static_cast<int>(qtype);
        negative += got.answers.empty() && got.authoritative ? 1 : 0;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 2000);
  EXPECT_GT(negative, compared / 4);
}

// ---------------------------------------------------------------------------
// find_hosted vs the linear scan it replaced

/// AuthServer's zone choice as it was before find_hosted: scan every
/// hosted apex for the deepest one at or above qname, skipping an apex
/// DS question's own apex when some other hosted apex encloses it.
const HostedZone* reference_best_zone(const HostedZones& zones,
                                      const Name& qname, RRType qtype) {
  const HostedZone* best = nullptr;
  for (const auto& [apex, hosted] : zones) {
    if (!qname.is_subdomain_of(apex)) continue;
    if (qtype == RRType::kDS && qname == apex) {
      bool parent_hosted = false;
      for (const auto& [other_apex, _] : zones) {
        if (other_apex != apex && qname.is_subdomain_of(other_apex)) {
          parent_hosted = true;
          break;
        }
      }
      if (parent_hosted) continue;
    }
    if (best == nullptr ||
        apex.label_count() > best->zone.apex().label_count()) {
      best = hosted.get();
    }
  }
  return best;
}

zone::Zone soa_only_zone(const Name& apex) {
  zone::Zone z(apex);
  dns::SoaRdata soa;
  soa.mname = apex.child("ns1");
  soa.rname = apex.child("hostmaster");
  z.add(apex, RRType::kSOA, 3600, soa);
  return z;
}

TEST(FindHosted, MatchesLinearScanOnGeneratedZoneSets) {
  // The root, a parent/child/grandchild chain, two siblings under that
  // parent and a lone deep zone with no hosted ancestor but the root.
  const std::vector<Name> pool = {
      Name(),
      Name::of("test."),
      Name::of("example.test."),
      Name::of("sub.example.test."),
      Name::of("a.test."),
      Name::of("b.test."),
      Name::of("x.y.z.lone.example."),
  };
  std::vector<std::shared_ptr<const HostedZone>> versions;
  for (const Name& apex : pool) {
    versions.push_back(load_version(soa_only_zone(apex)));
  }
  // Each apex, names below it, names outside every non-root zone, and
  // the root.
  std::vector<Name> qnames = {Name(), Name::of("unrelated.invalid."),
                              Name::of("y.z.lone.example.")};
  for (const Name& apex : pool) {
    qnames.push_back(apex);
    qnames.push_back(apex.child("www"));
    qnames.push_back(apex.child("b").child("a"));
  }
  Rng rng{34};
  int compared = 0;
  int parent_side = 0;
  int refused = 0;
  for (int round = 0; round < 200; ++round) {
    // Round 0 hosts nothing, round 1 everything, later rounds a random
    // subset.
    HostedZones zones;
    AuthServer server("ns1");
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (round == 0 || (round > 1 && !rng.chance(0.5))) continue;
      zones.emplace(pool[i], versions[i]);
      server.load_zone(versions[i]);
    }
    for (const Name& name : qnames) {
      const Name qname = rng.chance(0.3) ? random_spelling(rng, name) : name;
      for (const RRType qtype : {RRType::kDS, RRType::kA, RRType::kSOA}) {
        const HostedZone* want = reference_best_zone(zones, qname, qtype);
        const auto it = find_hosted(zones, qname, qtype);
        const HostedZone* got =
            it == zones.end() ? nullptr : it->second.get();
        ASSERT_EQ(got, want) << "round " << round << " "
                             << qname.to_string() << " "
                             << dns::rrtype_to_string(qtype);
        EXPECT_EQ(server.answering_serial(qname, qtype),
                  want == nullptr ? 0 : want->serial);
        refused += want == nullptr ? 1 : 0;
        parent_side += want != nullptr && zones.contains(qname) &&
                               want->zone.apex() != qname
                           ? 1
                           : 0;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 200 * 3 * static_cast<int>(3 + 3 * pool.size()));
  EXPECT_GT(refused, compared / 20);
  EXPECT_GT(parent_side, 100);
}

}  // namespace
}  // namespace dfx::authserver
