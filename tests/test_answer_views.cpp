// Answers as views into a pinned hosted version: results, synthesized
// answers, harvested proofs and probes outlive every other holder of the
// version they point into (run under the asan-ubsan preset), and the
// frontend's in-place body encoder writes exactly the record sections of
// encode_message(to_message()) on generated signed zones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analyzer/probe.h"
#include "authserver/farm.h"
#include "dnscore/message.h"
#include "server/frontend.h"
#include "util/rng.h"
#include "zone/signer.h"

namespace dfx::server {
namespace {

using authserver::HostedZone;
using authserver::QueryResult;
using dns::Name;
using dns::RRType;

constexpr UnixTime kNow = kDatasetStart;

void generate_keys(zone::KeyStore& keys, Rng& rng) {
  keys.generate(rng, zone::KeyRole::kKsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
  keys.generate(rng, zone::KeyRole::kZsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
}

zone::Zone zone_base(const Name& apex) {
  zone::Zone z(apex);
  dns::SoaRdata soa;
  soa.mname = apex.child("ns1");
  soa.rname = apex.child("hostmaster");
  z.add(apex, RRType::kSOA, 3600, soa);
  z.add(apex, RRType::kNS, 3600, dns::NsRdata{apex.child("ns1")});
  z.add(apex.child("ns1"), RRType::kA, 3600, dns::ARdata{{192, 0, 2, 53}});
  return z;
}

/// A small signed zone whose `www` address is `last_octet`, so two
/// versions answer differently.
zone::Zone small_zone(const Name& apex, zone::KeyStore& keys,
                      std::uint8_t last_octet) {
  zone::Zone z = zone_base(apex);
  for (const char* label : {"alias", "big", "ns2", "www"}) {
    z.add(apex.child(label), RRType::kA, 3600,
          dns::ARdata{{192, 0, 2, last_octet}});
  }
  return zone::sign_zone(z, keys, zone::SigningConfig{}, kNow);
}

std::string render(const QueryResult& result) {
  std::string out = "rcode=" + std::to_string(static_cast<int>(result.rcode));
  for (const auto* section :
       {&result.answers, &result.authorities, &result.additionals}) {
    out += "\n--";
    for (const dns::RecordRef rr : *section) out += "\n" + rr.to_text();
  }
  return out;
}

std::string render(const analyzer::ServerProbe& sp) {
  std::string out;
  for (const QueryResult* r : {&sp.dnskey, &sp.soa, &sp.ns, &sp.apex_a,
                               &sp.nsec3param, &sp.nxdomain,
                               &sp.nxdomain_last, &sp.nodata}) {
    out += render(*r) + "\n";
  }
  return out;
}

/// Encode `result` the way a miss does and the way the message codec
/// does; both must agree, and reading every record must be safe.
Bytes encode(const QueryResult& result, const Name& qname, RRType qtype) {
  const dns::Question question{qname, qtype, dns::RRClass::kIN};
  EXPECT_FALSE(dns::encode_message(result.to_message(question)).empty());
  return WireFrontend::build_body(question, result, /*do_bit=*/true).bytes;
}

TEST(AnswerViews, HeldResultsOutliveTheirVersionInEveryHolder) {
  const Name apex = Name::of("example.test.");
  const Name www = apex.child("www");
  const Name missing = apex.child("missing");
  const Name also_missing = apex.child("missinh");  // same NSEC interval
  Rng rng{7};
  zone::KeyStore keys{apex};
  generate_keys(keys, rng);

  // Serving side: no invalidation hook, so the harvest stays current
  // across the store's re-upsert and remove and is read after both.
  ZoneStore store;
  AnswerCache cache;
  ASSERT_TRUE(store.upsert(small_zone(apex, keys, 1)));
  std::shared_ptr<const HostedZone> version = store.find(www, RRType::kA);
  ASSERT_NE(version, nullptr);
  const std::weak_ptr<const HostedZone> old_version = version;
  const std::uint64_t epoch = cache.epoch();

  std::optional<QueryResult> positive =
      authserver::answer(version, www, RRType::kA);
  QueryResult negative = authserver::answer(version, missing, RRType::kA);
  version.reset();
  ASSERT_EQ(negative.rcode, dns::RCode::kNXDomain);
  cache.observe(apex, negative, epoch);
  std::optional<QueryResult> synthesized =
      cache.synthesize(apex, also_missing, RRType::kA, epoch);
  ASSERT_TRUE(synthesized.has_value());

  // Probing side: a server of a farm, then the server drops the zone.
  authserver::ServerFarm farm;
  farm.host_zone({"ns1"}, small_zone(apex, keys, 3));
  std::optional<analyzer::ServerProbe> probed =
      analyzer::probe_zone(farm, {apex}, 0).servers.at(0);
  const std::weak_ptr<const HostedZone> probed_version = probed->dnskey.pin;
  ASSERT_FALSE(probed_version.expired());

  const std::string positive_text = render(*positive);
  const Bytes positive_body = encode(*positive, www, RRType::kA);
  const std::string synthesized_text = render(*synthesized);
  const std::string probed_text = render(*probed);

  ASSERT_TRUE(store.upsert(small_zone(apex, keys, 2)));
  const auto fresh = store.query(www, RRType::kA);
  ASSERT_TRUE(fresh.has_value());
  ASSERT_NE(render(fresh->second), positive_text);
  ASSERT_TRUE(store.remove(apex));
  farm.server("ns1").unload_zone(apex);
  ASSERT_FALSE(farm.server("ns1").serves(apex));
  EXPECT_FALSE(old_version.expired());

  // Everything still reads (and encodes) the version it was made from.
  EXPECT_EQ(render(*positive), positive_text);
  EXPECT_EQ(encode(*positive, www, RRType::kA), positive_body);
  EXPECT_EQ(render(*synthesized), synthesized_text);
  (void)encode(*synthesized, also_missing, RRType::kA);
  {
    // The harvested blocks are read again: synthesis from the old harvest.
    const auto again =
        cache.synthesize(apex, also_missing, RRType::kA, epoch);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(render(*again), synthesized_text);
    (void)encode(*again, also_missing, RRType::kA);
  }
  EXPECT_EQ(render(*probed), probed_text);
  (void)encode(probed->nxdomain, analyzer::nx_probe_name(apex), RRType::kA);

  // Dropping the results leaves the harvest as the last holder.
  positive.reset();
  synthesized.reset();
  negative = QueryResult{};
  EXPECT_FALSE(old_version.expired());
  // A harvest in a newer epoch replaces it and releases the old version.
  cache.invalidate_all();
  ASSERT_TRUE(store.upsert(small_zone(apex, keys, 4)));
  const auto newer = store.query(missing, RRType::kA);
  ASSERT_TRUE(newer.has_value());
  cache.observe(apex, newer->second, cache.epoch());
  EXPECT_TRUE(old_version.expired());

  EXPECT_FALSE(probed_version.expired());
  probed.reset();
  EXPECT_TRUE(probed_version.expired());
}

// ---------------------------------------------------------------------------
// build_body vs encode_message(to_message())

std::string random_label(Rng& rng) {
  static constexpr char kAlphabet[] = "abcdefgh";
  std::string label;
  for (std::uint64_t i = 1 + rng.uniform(3); i > 0; --i) {
    label.push_back(kAlphabet[rng.uniform(sizeof kAlphabet - 1)]);
  }
  return label;
}

Name random_name(Rng& rng, const Name& apex, std::uint64_t max_depth) {
  Name name = apex;
  for (std::uint64_t i = 1 + rng.uniform(max_depth); i > 0; --i) {
    name = name.child(random_label(rng));
  }
  return name;
}

Name random_spelling(Rng& rng, const Name& name) {
  std::string text = name.to_string();
  for (char& c : text) {
    if (rng.chance(0.4)) c = static_cast<char>(std::toupper(c));
  }
  return Name::of(text);
}

/// Names up to three labels deep (so empty non-terminals), a wildcard at
/// the apex and one deeper, a CNAME, a delegation with DS and one
/// without, and for NSEC3 an owner whose first label is not base32hex.
zone::Zone generated_zone(Rng& rng, const Name& apex, zone::KeyStore& keys,
                          bool nsec3) {
  zone::Zone z = zone_base(apex);
  for (std::uint64_t i = 4 + rng.uniform(16); i > 0; --i) {
    const Name owner = random_name(rng, apex, 3);
    if (rng.chance(0.5)) {
      z.add(owner, RRType::kA, 3600,
            dns::ARdata{{10, 0, 0, static_cast<std::uint8_t>(i)}});
    } else {
      z.add(owner, RRType::kTXT, 3600,
            dns::TxtRdata{{"t" + std::to_string(i)}});
    }
  }
  z.add(apex.child("*"), RRType::kA, 3600, dns::ARdata{{10, 1, 1, 1}});
  z.add(apex.child("w").child("*"), RRType::kTXT, 3600,
        dns::TxtRdata{{"wild"}});
  z.add(apex.child("alias"), RRType::kCNAME, 3600,
        dns::CnameRdata{apex.child("target")});
  for (const char* label : {"signed-cut", "plain-cut"}) {
    const Name cut = apex.child(label);
    z.add(cut, RRType::kNS, 3600, dns::NsRdata{cut.child("ns")});
    z.add(cut.child("ns"), RRType::kA, 3600, dns::ARdata{{192, 0, 2, 9}});
  }
  dns::DsRdata ds;
  ds.key_tag = 1;
  ds.algorithm = 13;
  ds.digest.assign(32, 0x22);
  z.add(apex.child("signed-cut"), RRType::kDS, 3600, ds);

  zone::SigningConfig config;
  config.denial = nsec3 ? zone::DenialMode::kNsec3 : zone::DenialMode::kNsec;
  config.nsec3_iterations = static_cast<std::uint16_t>(rng.uniform(3));
  if (rng.chance(0.5)) config.nsec3_salt = {0xAB, 0xCD};
  zone::Zone signed_zone = zone::sign_zone(z, keys, config, kNow);
  if (nsec3) {
    signed_zone.add(apex.child("zz-not-base32"), RRType::kNSEC3, 3600,
                    dns::Nsec3Rdata{});
  }
  return signed_zone;
}

TEST(BuildBody, EqualsTheRecordSectionsOfEncodeMessage) {
  const Name apex = Name::of("Example.Test.");
  Rng rng{4242};
  zone::KeyStore keys{apex};
  generate_keys(keys, rng);
  const RRType qtypes[] = {RRType::kA,    RRType::kTXT, RRType::kMX,
                           RRType::kNS,   RRType::kDS,  RRType::kSOA,
                           RRType::kCNAME, RRType::kDNSKEY};
  int compared = 0;
  int stripped = 0;
  for (int round = 0; round < 6; ++round) {
    const bool nsec3 = round % 2 == 1;
    const auto hosted =
        authserver::load_version(generated_zone(rng, apex, keys, nsec3));
    const std::vector<Name> owners = hosted->zone.owner_names();
    for (int q = 0; q < 80; ++q) {
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
      qname = random_spelling(rng, qname);
      const RRType qtype = qtypes[rng.uniform(std::size(qtypes))];
      const QueryResult result = authserver::answer(hosted, qname, qtype);
      const dns::Question question{qname, qtype, dns::RRClass::kIN};
      for (const bool do_bit : {true, false}) {
        dns::Message msg = result.to_message(question);
        if (!do_bit) {
          for (auto* section :
               {&msg.answers, &msg.authorities, &msg.additionals}) {
            stripped += static_cast<int>(std::erase_if(
                *section, [](const dns::ResourceRecord& rr) {
                  return rr.type == RRType::kRRSIG ||
                         rr.type == RRType::kNSEC ||
                         rr.type == RRType::kNSEC3;
                }));
          }
        }
        const Bytes wire = dns::encode_message(msg);
        const std::size_t prefix = 12 + qname.wire_length() + 4;
        ASSERT_GE(wire.size(), prefix);
        const AnswerBody body =
            WireFrontend::build_body(question, result, do_bit);
        const std::string where = qname.to_string() + " " +
                                  dns::rrtype_to_string(qtype) +
                                  (do_bit ? " DO" : "");
        ASSERT_EQ(body.bytes, Bytes(wire.begin() + static_cast<std::ptrdiff_t>(
                                                       prefix),
                                    wire.end()))
            << where;
        EXPECT_EQ(body.ancount, msg.answers.size()) << where;
        EXPECT_EQ(body.nscount, msg.authorities.size()) << where;
        EXPECT_EQ(body.arcount, msg.additionals.size()) << where;
        EXPECT_EQ(body.rcode, result.rcode) << where;
        EXPECT_EQ(body.aa, result.authoritative) << where;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 6 * 80 * 2);
  EXPECT_GT(stripped, compared);
}

// ---------------------------------------------------------------------------
// A DenialIndex inherited across re-publishes outlives the versions before

TEST(AnswerViews, InheritedIndexAnswersAfterEveryEarlierVersionIsDropped) {
  const Name apex = Name::of("example.test.");
  Rng rng{36};
  zone::KeyStore keys{apex};
  generate_keys(keys, rng);
  int compared = 0;
  for (const bool nsec3 : {false, true}) {
    SCOPED_TRACE(nsec3 ? "nsec3" : "nsec");
    ZoneStore store;
    authserver::ServerFarm farm;
    std::optional<zone::Zone> next = generated_zone(rng, apex, keys, nsec3);
    ASSERT_TRUE(store.upsert(*next));
    farm.host_zone({"ns1", "ns2"}, *next);
    std::shared_ptr<const HostedZone> first = store.find(apex, RRType::kSOA);
    ASSERT_NE(first, nullptr);
    const std::weak_ptr<const HostedZone> first_version = first;
    const std::weak_ptr<const authserver::DenialIndex> index = first->denial;
    const auto farm_index = farm.server("ns1").hosted(apex)->denial;
    first.reset();

    // Three re-publishes edited outside the chain: each writes a fresh
    // clone, so no RRset of the first version survives in the last one.
    for (int v = 0; v < 3; ++v) {
      next->bump_serial();
      next->add(random_name(rng, apex, 3), RRType::kA, 60,
                dns::ARdata{{10, 7, 7, static_cast<std::uint8_t>(v)}});
      ASSERT_TRUE(store.upsert(*next));
      farm.sync_zone(*next);
    }
    next.reset();
    EXPECT_TRUE(first_version.expired());
    const auto hosted = store.find(apex, RRType::kSOA);
    ASSERT_NE(hosted, nullptr);
    ASSERT_FALSE(index.expired());
    EXPECT_EQ(hosted->denial, index.lock());
    for (const char* server : {"ns1", "ns2"}) {
      EXPECT_EQ(farm.server(server).hosted(apex)->denial, farm_index);
    }

    // Every answer from the inherited index equals one from an index built
    // from the hosted zone itself, and encodes.
    const authserver::DenialIndex rebuilt(hosted->zone);
    const std::vector<Name> owners = hosted->zone.owner_names();
    for (int q = 0; q < 120; ++q) {
      const Name qname =
          q % 3 == 0 ? owners[rng.uniform(owners.size())]
                     : random_spelling(rng, random_name(rng, apex, 4));
      const RRType qtype = q % 2 == 0 ? RRType::kA : RRType::kTXT;
      const auto served = store.query(qname, qtype);
      ASSERT_TRUE(served.has_value());
      const QueryResult want =
          authserver::answer(hosted->zone, rebuilt, qname, qtype);
      ASSERT_EQ(render(served->second), render(want)) << qname.to_string();
      ASSERT_EQ(render(farm.server("ns2").query(qname, qtype)), render(want))
          << qname.to_string();
      const dns::Question question{qname, qtype, dns::RRClass::kIN};
      EXPECT_EQ(
          WireFrontend::build_body(question, served->second, true).bytes,
          WireFrontend::build_body(question, want, true).bytes);
      ++compared;
    }
  }
  EXPECT_EQ(compared, 2 * 120);
}

}  // namespace
}  // namespace dfx::server
