// Signing engine tests: RRSIG correctness, NSEC/NSEC3 chain construction,
// delegation handling, algorithm completeness, and DS generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "dnscore/masterfile.h"
#include "util/codec.h"
#include "util/metrics.h"
#include "zone/nsec3.h"
#include "zone/signer.h"

namespace dfx::zone {
namespace {

using dns::Name;
using dns::RRType;

constexpr UnixTime kNow = kDatasetStart;

struct Fixture {
  Name apex = Name::of("example.com.");
  Zone unsigned_zone{apex};
  KeyStore keys{apex};
  Rng rng{77};

  Fixture() {
    dns::SoaRdata soa;
    soa.mname = apex.child("ns1");
    soa.rname = apex.child("hostmaster");
    soa.minimum = 900;
    unsigned_zone.add(apex, RRType::kSOA, 3600, soa);
    unsigned_zone.add(apex, RRType::kNS, 3600,
                      dns::NsRdata{apex.child("ns1")});
    dns::ARdata a;
    a.address = {192, 0, 2, 1};
    unsigned_zone.add(apex.child("ns1"), RRType::kA, 3600, a);
    unsigned_zone.add(apex.child("www"), RRType::kA, 3600, a);
    unsigned_zone.add(apex.child("mail"), RRType::kA, 3600, a);
    keys.generate(rng, KeyRole::kKsk,
                  crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
    keys.generate(rng, KeyRole::kZsk,
                  crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
  }
};

std::vector<const dns::RrsigRdata*> sigs_covering(const Zone& zone,
                                                  const Name& owner,
                                                  RRType type) {
  std::vector<const dns::RrsigRdata*> out;
  const auto* rrset = zone.find(owner, RRType::kRRSIG);
  if (rrset == nullptr) return out;
  for (const auto& rdata : rrset->rdatas()) {
    const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
    if (sig != nullptr && sig->type_covered == type) out.push_back(sig);
  }
  return out;
}

TEST(Signer, EveryAuthoritativeRRsetIsSigned) {
  Fixture f;
  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, {}, kNow);
  for (const auto* rrset : signed_zone.all_rrsets()) {
    if (rrset->type() == RRType::kRRSIG) continue;
    const auto sigs = sigs_covering(signed_zone, rrset->owner(),
                                    rrset->type());
    EXPECT_FALSE(sigs.empty())
        << rrset->owner().to_string() << "/"
        << dns::rrtype_to_string(rrset->type());
  }
}

TEST(Signer, SignaturesVerifyCryptographically) {
  Fixture f;
  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, {}, kNow);
  const auto* dnskeys = signed_zone.find(f.apex, RRType::kDNSKEY);
  ASSERT_NE(dnskeys, nullptr);
  for (const auto* rrset : signed_zone.all_rrsets()) {
    if (rrset->type() == RRType::kRRSIG) continue;
    for (const auto* sig :
         sigs_covering(signed_zone, rrset->owner(), rrset->type())) {
      bool verified = false;
      for (const auto& key_rdata : dnskeys->rdatas()) {
        const auto& key = std::get<dns::DnskeyRdata>(key_rdata);
        if (key.key_tag() == sig->key_tag) {
          verified = verify_rrsig(*rrset, *sig, key);
        }
      }
      EXPECT_TRUE(verified) << rrset->owner().to_string();
    }
  }
}

TEST(Signer, DnskeySignedByKskDataByZsk) {
  Fixture f;
  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, {}, kNow);
  const auto ksk_tag = f.keys.active_with_role(kNow, KeyRole::kKsk)[0]->tag();
  const auto zsk_tag = f.keys.active_with_role(kNow, KeyRole::kZsk)[0]->tag();
  const auto dnskey_sigs = sigs_covering(signed_zone, f.apex,
                                         RRType::kDNSKEY);
  ASSERT_EQ(dnskey_sigs.size(), 1u);
  EXPECT_EQ(dnskey_sigs[0]->key_tag, ksk_tag);
  const auto soa_sigs = sigs_covering(signed_zone, f.apex, RRType::kSOA);
  ASSERT_EQ(soa_sigs.size(), 1u);
  EXPECT_EQ(soa_sigs[0]->key_tag, zsk_tag);
}

TEST(Signer, NsecChainIsClosedAndOrdered) {
  Fixture f;
  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, {}, kNow);
  // Collect the NSEC chain: each owner's next must be the following owner
  // in canonical order, wrapping to the apex.
  std::vector<std::pair<Name, Name>> links;
  for (const auto* rrset : signed_zone.all_rrsets()) {
    if (rrset->type() != RRType::kNSEC) continue;
    // dfx-lint: allow(unchecked-front-back): an RRset holds >=1 rdata by construction
    const auto& nsec = std::get<dns::NsecRdata>(rrset->rdatas().front());
    links.emplace_back(rrset->owner(), nsec.next);
  }
  ASSERT_FALSE(links.empty());
  // Walk from the apex: we must visit every link exactly once and return.
  Name cursor = f.apex;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto it = std::find_if(links.begin(), links.end(),
                                 [&](const auto& l) {
                                   return l.first == cursor;
                                 });
    ASSERT_NE(it, links.end()) << "chain broken at " << cursor.to_string();
    cursor = it->second;
  }
  EXPECT_EQ(cursor, f.apex) << "chain does not wrap to the apex";
}

TEST(Signer, NsecBitmapListsOwnerTypes) {
  Fixture f;
  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, {}, kNow);
  const auto* apex_nsec = signed_zone.find(f.apex, RRType::kNSEC);
  ASSERT_NE(apex_nsec, nullptr);
  // dfx-lint: allow(unchecked-front-back): an RRset holds >=1 rdata by construction
  const auto& nsec = std::get<dns::NsecRdata>(apex_nsec->rdatas().front());
  for (RRType t : {RRType::kSOA, RRType::kNS, RRType::kDNSKEY, RRType::kNSEC,
                   RRType::kRRSIG}) {
    EXPECT_TRUE(nsec.types.contains(t)) << dns::rrtype_to_string(t);
  }
  EXPECT_FALSE(nsec.types.contains(RRType::kMX));
}

TEST(Signer, Nsec3ChainClosedOverHashSpace) {
  Fixture f;
  SigningConfig config;
  config.denial = DenialMode::kNsec3;
  config.nsec3_salt = {0xAB};
  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, config, kNow);
  EXPECT_NE(signed_zone.find(f.apex, RRType::kNSEC3PARAM), nullptr);
  std::vector<std::pair<Bytes, Bytes>> links;  // owner hash -> next hash
  for (const auto* rrset : signed_zone.all_rrsets()) {
    if (rrset->type() != RRType::kNSEC3) continue;
    // dfx-lint: allow(unchecked-front-back): an RRset holds >=1 rdata by construction
    const auto& n3 = std::get<dns::Nsec3Rdata>(rrset->rdatas().front());
    auto owner_hash = base32hex_decode(rrset->owner().leftmost_label());
    ASSERT_TRUE(owner_hash.has_value());
    EXPECT_EQ(n3.salt, config.nsec3_salt);
    links.emplace_back(*owner_hash, n3.next_hashed);
  }
  ASSERT_FALSE(links.empty());
  std::sort(links.begin(), links.end());
  for (std::size_t i = 0; i + 1 < links.size(); ++i) {
    EXPECT_EQ(links[i].second, links[i + 1].first) << "gap at " << i;
  }
  EXPECT_EQ(links.back().second, links.front().first) << "no wrap-around";
}

TEST(Signer, DelegationNsIsNotSignedButDsIs) {
  Fixture f;
  const Name cut = f.apex.child("child");
  f.unsigned_zone.add(cut, RRType::kNS, 3600,
                      dns::NsRdata{Name::of("ns1.child.example.com.")});
  dns::DsRdata ds;
  ds.key_tag = 1;
  ds.algorithm = 13;
  ds.digest_type = 2;
  ds.digest = Bytes(32, 1);
  f.unsigned_zone.add(cut, RRType::kDS, 3600, ds);
  dns::ARdata glue;
  glue.address = {10, 0, 0, 1};
  f.unsigned_zone.add(Name::of("ns1.child.example.com."), RRType::kA, 3600,
                      glue);

  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, {}, kNow);
  EXPECT_TRUE(sigs_covering(signed_zone, cut, RRType::kNS).empty());
  EXPECT_FALSE(sigs_covering(signed_zone, cut, RRType::kDS).empty());
  // Glue is not signed either.
  EXPECT_TRUE(sigs_covering(signed_zone,
                            Name::of("ns1.child.example.com."), RRType::kA)
                  .empty());
}

TEST(Signer, OptOutSkipsInsecureDelegations) {
  Fixture f;
  const Name insecure_cut = f.apex.child("insecure");
  f.unsigned_zone.add(insecure_cut, RRType::kNS, 3600,
                      dns::NsRdata{Name::of("ns.elsewhere.net.")});
  SigningConfig config;
  config.denial = DenialMode::kNsec3;
  config.nsec3_opt_out = true;
  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, config, kNow);
  const Bytes h = nsec3_hash(insecure_cut, config.nsec3_salt, 0);
  for (const auto* rrset : signed_zone.all_rrsets()) {
    if (rrset->type() != RRType::kNSEC3) continue;
    const auto owner_hash =
        base32hex_decode(rrset->owner().leftmost_label());
    EXPECT_NE(*owner_hash, h) << "opt-out cut must not be in the chain";
    // dfx-lint: allow(unchecked-front-back): an RRset holds >=1 rdata by construction
    const auto& n3 = std::get<dns::Nsec3Rdata>(rrset->rdatas().front());
    EXPECT_TRUE(n3.opt_out());
  }
}

TEST(Signer, KskOnlyAlgorithmCoSignsData) {
  // RFC 4035: every DNSKEY algorithm must sign the data. A second-algorithm
  // KSK without a matching ZSK must co-sign data RRsets.
  Fixture f;
  f.keys.generate(f.rng, KeyRole::kKsk, crypto::DnssecAlgorithm::kRsaSha256,
                  kNow);
  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, {}, kNow);
  const auto soa_sigs = sigs_covering(signed_zone, f.apex, RRType::kSOA);
  std::set<std::uint8_t> algorithms;
  for (const auto* sig : soa_sigs) algorithms.insert(sig->algorithm);
  EXPECT_TRUE(algorithms.contains(13));
  EXPECT_TRUE(algorithms.contains(8));
}

TEST(Signer, RevokedKeyStillSignsDnskeyRRset) {
  Fixture f;
  auto* ksk = const_cast<ZoneKey*>(
      f.keys.active_with_role(kNow, KeyRole::kKsk)[0]);
  ksk->set_revoked(true);
  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, {}, kNow);
  const auto dnskey_sigs = sigs_covering(signed_zone, f.apex,
                                         RRType::kDNSKEY);
  const bool revoked_signed = std::any_of(
      dnskey_sigs.begin(), dnskey_sigs.end(), [&](const dns::RrsigRdata* s) {
        return s->key_tag == ksk->tag();
      });
  EXPECT_TRUE(revoked_signed);  // RFC 5011
  // ...but the revoked key must not sign zone data.
  for (const auto* sig : sigs_covering(signed_zone, f.apex, RRType::kSOA)) {
    EXPECT_NE(sig->key_tag, ksk->tag());
  }
}

TEST(Signer, ValidityWindowFollowsConfig) {
  Fixture f;
  SigningConfig config;
  config.inception_offset = 2 * kHour;
  config.validity = 10 * kDay;
  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, config, kNow);
  const auto sigs = sigs_covering(signed_zone, f.apex, RRType::kSOA);
  ASSERT_FALSE(sigs.empty());
  EXPECT_EQ(sigs[0]->inception, kNow - 2 * kHour);
  EXPECT_EQ(sigs[0]->expiration, kNow + 10 * kDay);
}

TEST(Signer, MakeDsMatchesManualDigest) {
  Fixture f;
  const auto* ksk = f.keys.active_with_role(kNow, KeyRole::kKsk)[0];
  const auto ds = make_ds(*ksk, crypto::DigestType::kSha256);
  EXPECT_EQ(ds.key_tag, ksk->tag());
  EXPECT_EQ(ds.algorithm, 13);
  const auto expected = crypto::ds_digest(
      crypto::DigestType::kSha256, f.apex.to_canonical_wire(),
      dns::rdata_to_wire(dns::Rdata(ksk->to_dnskey())));
  EXPECT_EQ(ds.digest, expected);
}

TEST(Signer, StripDnssecRemovesAllDnssecTypes) {
  Fixture f;
  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, {}, kNow);
  const Zone stripped = strip_dnssec(signed_zone);
  for (const auto* rrset : stripped.all_rrsets()) {
    EXPECT_NE(rrset->type(), RRType::kRRSIG);
    EXPECT_NE(rrset->type(), RRType::kNSEC);
    EXPECT_NE(rrset->type(), RRType::kNSEC3);
    EXPECT_NE(rrset->type(), RRType::kDNSKEY);
    EXPECT_NE(rrset->type(), RRType::kNSEC3PARAM);
  }
  EXPECT_NE(stripped.find(f.apex, RRType::kSOA), nullptr);
}

TEST(Signer, VerifyRejectsTamperedRRset) {
  Fixture f;
  const Zone signed_zone = sign_zone(f.unsigned_zone, f.keys, {}, kNow);
  const auto* www = signed_zone.find(f.apex.child("www"), RRType::kA);
  ASSERT_NE(www, nullptr);
  const auto sigs = sigs_covering(signed_zone, f.apex.child("www"),
                                  RRType::kA);
  ASSERT_FALSE(sigs.empty());
  const auto* dnskeys = signed_zone.find(f.apex, RRType::kDNSKEY);
  const dns::DnskeyRdata* signer_key = nullptr;
  for (const auto& rdata : dnskeys->rdatas()) {
    const auto& key = std::get<dns::DnskeyRdata>(rdata);
    if (key.key_tag() == sigs[0]->key_tag) signer_key = &key;
  }
  ASSERT_NE(signer_key, nullptr);
  EXPECT_TRUE(verify_rrsig(*www, *sigs[0], *signer_key));
  dns::RRset tampered = *www;
  dns::ARdata evil;
  evil.address = {6, 6, 6, 6};
  tampered.add(evil);
  EXPECT_FALSE(verify_rrsig(tampered, *sigs[0], *signer_key));
}

std::int64_t counter_value(const char* name) {
  return metrics::Registry::global().counter(name).value();
}

Bytes memo_message(std::size_t i) {
  return to_bytes("signed data #" + std::to_string(i));
}

TEST(SignatureMemo, HitReturnsTheFreshSignature) {
  Rng rng(5);
  KeyStore keys(Name::of("example.com."));
  for (const auto alg : {crypto::DnssecAlgorithm::kRsaSha256,
                         crypto::DnssecAlgorithm::kEcdsaP256Sha256}) {
    const ZoneKey& key = keys.generate(rng, KeyRole::kZsk, alg, kNow);
    const Bytes message = memo_message(0);
    const Bytes fresh = crypto::sign_message(key.material(), message);
    const std::int64_t computed = counter_value("zone.signatures");
    const std::int64_t hits = counter_value("zone.signature_memo_hits");
    EXPECT_EQ(key.sign(message), fresh);
    EXPECT_EQ(key.sign(message), fresh);
    // A copy carries the same private material and shares the memo.
    const ZoneKey copy = key;
    EXPECT_EQ(copy.sign(message), fresh);
    EXPECT_EQ(counter_value("zone.signatures") - computed, 1);
    EXPECT_EQ(counter_value("zone.signature_memo_hits") - hits, 2);
  }
}

TEST(SignatureMemo, ResignAtTheSameTimeComputesNothing) {
  Fixture f;
  const Zone first = sign_zone(f.unsigned_zone, f.keys, {}, kNow);
  const std::int64_t computed = counter_value("zone.signatures");
  const Zone again = sign_zone(f.unsigned_zone, f.keys, {}, kNow);
  EXPECT_EQ(counter_value("zone.signatures") - computed, 0);
  EXPECT_EQ(dns::print_master_file(again.to_records()),
            dns::print_master_file(first.to_records()));
  // A new signing time changes every signed-data buffer: all fresh work.
  const Zone later = sign_zone(f.unsigned_zone, f.keys, {}, kNow + 1);
  EXPECT_GT(counter_value("zone.signatures") - computed, 0);
  EXPECT_NE(dns::print_master_file(later.to_records()),
            dns::print_master_file(first.to_records()));
}

TEST(SignatureMemo, StaysWithinItsBound) {
  Rng rng(6);
  KeyStore keys(Name::of("example.com."));
  const ZoneKey& key = keys.generate(
      rng, KeyRole::kZsk, crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
  const std::int64_t base = counter_value("zone.signatures");
  const auto computed = [&] { return counter_value("zone.signatures") - base; };
  const auto full = static_cast<std::int64_t>(kSignatureMemoEntries);
  for (std::size_t i = 0; i < kSignatureMemoEntries; ++i) {
    key.sign(memo_message(i));  // fills the memo
  }
  for (std::size_t i = 0; i < kSignatureMemoEntries; ++i) {
    key.sign(memo_message(i));  // every one a hit
  }
  EXPECT_EQ(computed(), full);
  // One message more than the bound: the full memo starts over.
  key.sign(memo_message(kSignatureMemoEntries));
  EXPECT_EQ(computed(), full + 1);
  key.sign(memo_message(kSignatureMemoEntries));
  EXPECT_EQ(computed(), full + 1);
  key.sign(memo_message(0));
  EXPECT_EQ(computed(), full + 2);
}

TEST(SignatureMemo, ConcurrentSignersSharingOneKey) {
  Rng rng(7);
  KeyStore keys(Name::of("example.com."));
  const ZoneKey& key = keys.generate(
      rng, KeyRole::kZsk, crypto::DnssecAlgorithm::kRsaSha256, kNow);
  constexpr std::size_t kMessages = 64;
  constexpr std::size_t kThreads = 4;
  std::vector<Bytes> fresh;
  for (std::size_t i = 0; i < kMessages; ++i) {
    fresh.push_back(crypto::sign_message(key.material(), memo_message(i)));
  }
  const std::vector<ZoneKey> copies(kThreads, key);
  std::vector<std::vector<Bytes>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the messages from its own starting point, so
      // hits, misses and stores interleave across threads.
      got[t].resize(kMessages);
      for (std::size_t n = 0; n < 2 * kMessages; ++n) {
        const std::size_t i = (n + t * kMessages / kThreads) % kMessages;
        got[t][i] = copies[t].sign(memo_message(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], fresh);
}

}  // namespace
}  // namespace dfx::zone
