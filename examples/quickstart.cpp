// Quickstart: build a zone from master-file text, generate keys, sign it,
// serve it from two in-memory authoritative servers, resolve a name, and
// run the DNSViz-style analysis — the library's core loop in ~100 lines.
#include <cstdio>

#include "analyzer/grok.h"
#include "analyzer/probe.h"
#include "authserver/farm.h"
#include "authserver/resolver.h"
#include "dnscore/masterfile.h"
#include "util/rng.h"
#include "zone/signer.h"

using namespace dfx;

int main() {
  // 1. Parse a zone from master-file text.
  const auto apex = dns::Name::of("example.test.");
  const char* zone_text = R"(
$TTL 3600
@       IN SOA ns1 hostmaster 1 7200 3600 1209600 3600
@       IN NS  ns1
@       IN NS  ns2
@       IN A   192.0.2.1
@       IN TXT "hello from dnssec-dfixer"
ns1     IN A   192.0.2.53
ns2     IN A   192.0.2.54
www     IN A   192.0.2.80
mail    IN MX  10 www
)";
  auto parsed = dns::parse_master_file(zone_text, apex);
  if (auto* err = std::get_if<dns::MasterFileError>(&parsed)) {
    std::printf("zone parse error at line %zu: %s\n", err->line,
                err->message.c_str());
    return 1;
  }
  zone::Zone unsigned_zone(apex);
  for (const auto& rr : std::get<std::vector<dns::ResourceRecord>>(parsed)) {
    unsigned_zone.add(rr);
  }

  // 2. Generate a KSK + ZSK and sign the zone (NSEC3, RFC 9276 settings).
  Rng rng(2024);
  zone::KeyStore keys(apex);
  const auto& ksk = keys.generate(
      rng, zone::KeyRole::kKsk, crypto::DnssecAlgorithm::kEcdsaP256Sha256,
      kDatasetStart);
  keys.generate(rng, zone::KeyRole::kZsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, kDatasetStart);
  zone::SigningConfig config;
  config.denial = zone::DenialMode::kNsec3;
  const zone::Zone signed_zone =
      zone::sign_zone(unsigned_zone, keys, config, kDatasetStart);
  std::printf("Signed zone (%zu RRsets):\n",
              signed_zone.all_rrsets().size());
  for (const auto& rr : signed_zone.to_records()) {
    std::printf("  %s\n", rr.to_text().c_str());
  }

  // 3. Publish the DS at the (also signed) parent and serve both zones.
  const auto ds = zone::make_ds(ksk, crypto::DigestType::kSha256);
  const auto parent_apex = dns::Name::of("test.");
  zone::Zone parent_unsigned(parent_apex);
  dns::SoaRdata soa;
  soa.mname = parent_apex.child("ns1");
  soa.rname = parent_apex.child("hostmaster");
  parent_unsigned.add(parent_apex, dns::RRType::kSOA, 3600, soa);
  parent_unsigned.add(parent_apex, dns::RRType::kNS, 3600,
                      dns::NsRdata{parent_apex.child("ns1")});
  parent_unsigned.add(apex, dns::RRType::kNS, 3600,
                      dns::NsRdata{apex.child("ns1")});
  parent_unsigned.add(apex, dns::RRType::kDS, 3600, ds);
  zone::KeyStore parent_keys(parent_apex);
  parent_keys.generate(rng, zone::KeyRole::kKsk,
                       crypto::DnssecAlgorithm::kEcdsaP256Sha256,
                       kDatasetStart);
  parent_keys.generate(rng, zone::KeyRole::kZsk,
                       crypto::DnssecAlgorithm::kEcdsaP256Sha256,
                       kDatasetStart);
  const zone::Zone parent =
      zone::sign_zone(parent_unsigned, parent_keys, {}, kDatasetStart);

  authserver::ServerFarm farm;
  farm.host_zone({"ns1.example.test", "ns2.example.test"}, signed_zone);
  farm.host_zone({"ns1.example.test"}, parent);

  // 4. Resolve a name through the delegation chain.
  authserver::StubResolver resolver(farm, parent_apex);
  const auto answer =
      resolver.resolve(apex.child("www"), dns::RRType::kA);
  std::printf("\nResolved www.%s -> %s, %zu answer(s)\n",
              apex.to_string().c_str(),
              dns::rcode_to_string(answer.rcode).c_str(),
              answer.answers.size());

  // 5. Run the DNSViz-style analysis on the chain.
  const auto data =
      analyzer::probe(farm, {parent_apex, apex}, apex, kDatasetStart);
  const auto snapshot = analyzer::grok(data);
  std::printf("DNSSEC status: %s (%zu errors)\n",
              analyzer::status_name(snapshot.status).c_str(),
              snapshot.errors.size());
  for (const auto& e : snapshot.errors) {
    std::printf("  - %s: %s\n",
                analyzer::error_code_name(e.code).c_str(), e.detail.c_str());
  }
  return snapshot.status == analyzer::SnapshotStatus::kSignedValid ? 0 : 1;
}
