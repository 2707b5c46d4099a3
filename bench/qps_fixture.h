// The serving fixture and its byte-identity check, used by the tier-1 tests
// that pin the check's digest and serve it concurrently
// (tests/test_qps_fixture.cpp).
//
// The fixture hosts an NSEC zone, an NSEC3 zone and their parent in one
// ZoneStore, with a cache-on and a cache-off WireFrontend over it, and a
// query set covering every answer shape (positive, CNAME, apex SOA and
// DNSKEY, NODATA, ENT NODATA, wildcard, referral, DS at a cut, parent-side
// apex DS, NXDOMAIN, REFUSED), each with DO on and off.
//
// The check is the serving engine's core contract: the cache-on frontend
// (packet tier + RFC 8198 aggressive synthesis) answers bit-identically to
// the cache-off one, on a cold pass, a warm pass, and 80 never-asked
// negative names that only synthesis can answer from the cache.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dnscore/message.h"
#include "server/frontend.h"
#include "util/check.hpp"
#include "util/metrics.h"
#include "util/rng.h"
#include "zone/signer.h"

namespace dfx::bench {

/// One signed zone with every answer shape the workload needs: positives,
/// a CNAME, a wildcard subtree, an empty non-terminal, and a signed
/// delegation with glue and DS.
inline zone::Zone build_qps_zone(const dns::Name& apex,
                                 zone::DenialMode denial,
                                 zone::KeyStore& keys, Rng& rng,
                                 UnixTime now) {
  using dns::RRType;
  zone::Zone unsigned_zone(apex);
  dns::SoaRdata soa;
  soa.mname = apex.child("ns1");
  soa.rname = apex.child("hostmaster");
  unsigned_zone.add(apex, RRType::kSOA, 3600, soa);
  unsigned_zone.add(apex, RRType::kNS, 3600, dns::NsRdata{apex.child("ns1")});
  dns::ARdata a;
  a.address = {192, 0, 2, 1};
  unsigned_zone.add(apex.child("ns1"), RRType::kA, 3600, a);
  unsigned_zone.add(apex.child("www"), RRType::kA, 3600, a);
  unsigned_zone.add(apex.child("mail"), RRType::kMX, 3600,
                    dns::MxRdata{10, apex.child("www")});
  unsigned_zone.add(apex.child("alias"), RRType::kCNAME, 3600,
                    dns::CnameRdata{apex.child("www")});
  // Wildcard subtree: *.wild.<apex> (its presence also makes wild.<apex>
  // an empty non-terminal).
  unsigned_zone.add(apex.child("wild").child("*"), RRType::kA, 3600, a);
  // A deep record making ent.<apex> an empty non-terminal.
  unsigned_zone.add(apex.child("ent").child("deep"), RRType::kTXT, 3600,
                    dns::TxtRdata{{"ent-probe"}});
  // Signed delegation: NS + glue below the cut + DS at the cut.
  const dns::Name child = apex.child("child");
  unsigned_zone.add(child, RRType::kNS, 3600, dns::NsRdata{child.child("ns")});
  dns::ARdata glue;
  glue.address = {192, 0, 2, 53};
  unsigned_zone.add(child.child("ns"), RRType::kA, 3600, glue);
  dns::DsRdata ds;
  ds.key_tag = 4242;
  ds.algorithm = 13;
  ds.digest_type = 2;
  ds.digest.assign(32, 0x5A);
  unsigned_zone.add(child, RRType::kDS, 3600, ds);

  keys.generate(rng, zone::KeyRole::kKsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, now);
  keys.generate(rng, zone::KeyRole::kZsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, now);
  zone::SigningConfig config;
  config.denial = denial;
  if (denial == zone::DenialMode::kNsec3) {
    config.nsec3_iterations = 2;  // nontrivial params to exercise hashing
    config.nsec3_salt = {0xAB};
  }
  return zone::sign_zone(unsigned_zone, keys, config, now);
}

inline Bytes encode_qps_query(std::uint16_t id, const dns::Name& qname,
                              dns::RRType qtype, bool do_bit) {
  dns::Message msg;
  msg.header.id = id;
  msg.header.rd = true;
  msg.questions.push_back({qname, qtype, dns::RRClass::kIN});
  if (do_bit) {
    dns::EdnsInfo edns;
    edns.udp_size = 4096;
    edns.do_bit = true;
    msg.edns = edns;
  }
  return dns::encode_message(msg);
}

/// The zones hosted in a store of their own, with a cache-on and a
/// cache-off frontend over them.
struct QpsFixture {
  static constexpr UnixTime kNow = kDatasetStart;

  /// Signs and hosts the zones (keys drawn from `seed`) and builds the
  /// query set.
  explicit QpsFixture(std::uint64_t seed) : rng(seed) {
    using dns::RRType;
    store.upsert(build_qps_zone(nsec_apex, zone::DenialMode::kNsec,
                                nsec_keys, rng, kNow));
    store.upsert(build_qps_zone(nsec3_apex, zone::DenialMode::kNsec3,
                                nsec3_keys, rng, kNow));
    zone::Zone parent(parent_apex);
    dns::SoaRdata soa;
    soa.mname = parent_apex.child("ns1");
    soa.rname = parent_apex.child("hostmaster");
    parent.add(parent_apex, RRType::kSOA, 3600, soa);
    parent.add(parent_apex, RRType::kNS, 3600,
               dns::NsRdata{parent_apex.child("ns1")});
    for (const auto* keys : {&nsec_keys, &nsec3_keys}) {
      const auto ksks = keys->active_with_role(kNow, zone::KeyRole::kKsk);
      DFX_CHECK(!ksks.empty());
      parent.add(keys->zone(), RRType::kDS, 3600,
                 zone::make_ds(*ksks[0], crypto::DigestType::kSha256));
      parent.add(keys->zone(), RRType::kNS, 3600,
                 dns::NsRdata{keys->zone().child("ns1")});
    }
    store.upsert(std::move(parent));
    server::connect_invalidation(store, cache);

    const auto add_query = [&](const dns::Name& qname, RRType qtype) {
      for (const bool do_bit : {true, false}) {
        queries.push_back(encode_qps_query(
            static_cast<std::uint16_t>(queries.size() * 7919u), qname, qtype,
            do_bit));
      }
    };
    for (const dns::Name& apex : {nsec_apex, nsec3_apex}) {
      add_query(apex.child("www"), RRType::kA);          // positive
      add_query(apex.child("alias"), RRType::kA);        // CNAME
      add_query(apex, RRType::kSOA);                     // apex positive
      add_query(apex, RRType::kDNSKEY);                  // key set
      add_query(apex.child("www"), RRType::kMX);         // NODATA
      add_query(apex.child("ent"), RRType::kA);          // ENT NODATA
      add_query(apex.child("wild").child("anything"), RRType::kA);  // wildcard
      add_query(apex.child("child").child("deep"), RRType::kA);     // referral
      add_query(apex.child("child"), RRType::kDS);       // DS at the cut
      add_query(apex.child("child"), RRType::kMX);       // referral at cut
      add_query(apex, RRType::kDS);                      // parent-side DS
      for (int i = 0; i < 6; ++i) {  // NXDOMAIN
        add_query(apex.child("nx" + std::to_string(i)), RRType::kA);
      }
    }
    add_query(dns::Name::of("unhosted.example."), RRType::kA);  // REFUSED
  }

  dns::Name parent_apex = dns::Name::of("test.");
  dns::Name nsec_apex = dns::Name::of("example.test.");
  dns::Name nsec3_apex = dns::Name::of("n3.test.");
  Rng rng;
  zone::KeyStore nsec_keys{nsec_apex};
  zone::KeyStore nsec3_keys{nsec3_apex};
  server::ZoneStore store;
  server::AnswerCache cache;
  server::WireFrontend cached{store, &cache};
  server::WireFrontend uncached{store, nullptr};
  std::vector<Bytes> queries;
};

/// 40 never-asked A queries (DO set) per signed zone: the packet tier
/// cannot hold them before their first answer, so a cache hit on one is
/// aggressive NSEC/NSEC3 synthesis.
inline std::vector<Bytes> synthesis_probes(const QpsFixture& f) {
  std::vector<Bytes> probes;
  for (const dns::Name& apex : {f.nsec_apex, f.nsec3_apex}) {
    for (int i = 0; i < 40; ++i) {
      probes.push_back(encode_qps_query(static_cast<std::uint16_t>(i),
                                        apex.child("probe" + std::to_string(i)),
                                        dns::RRType::kA, /*do_bit=*/true));
    }
  }
  return probes;
}

/// Outcome of the byte-identity check.
struct IdentityCheck {
  /// XOR of the FNV-1a digests of every cache-off response (the two
  /// passes, then the probes): pinned by the QpsFixture ctest.
  std::uint64_t digest = 0;
  /// Responses where cache-on and cache-off differ, and the first one.
  int mismatches = 0;
  std::string first_mismatch;
  /// Probe answers the cache synthesized (must be > 0).
  std::int64_t synthesized = 0;
  /// Negative-tier attempts skipped because another thread held the tier
  /// (`server.cache.neg_busy`) over the whole check: 0 on one thread.
  std::int64_t neg_busy = 0;
};

/// Serve every query cache-off and cache-on, twice, then the synthesis
/// probes; compare the bytes. Runs once per fixture: the second pass and
/// the probes rely on what the first pass cached.
inline IdentityCheck check_cache_identity(const QpsFixture& f) {
  IdentityCheck out;
  auto& neg_busy = metrics::Registry::global().counter("server.cache.neg_busy");
  const std::int64_t busy_before = neg_busy.value();
  const auto digest_of = [](const Bytes& bytes) {
    return fnv1a64(std::string_view(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  };
  const auto compare = [&](const Bytes& query, const std::string& what) {
    const Bytes want = f.uncached.serve(query);
    const Bytes got = f.cached.serve(query);
    if (want != got && out.mismatches++ == 0) out.first_mismatch = what;
    out.digest ^= digest_of(want);
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < f.queries.size(); ++i) {
      compare(f.queries[i], "pass " + std::to_string(pass) + " query " +
                                std::to_string(i));
    }
  }
  auto& synth_hits =
      metrics::Registry::global().counter("server.cache.synth_hits");
  const std::int64_t synth_before = synth_hits.value();
  const std::vector<Bytes> probes = synthesis_probes(f);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    compare(probes[i], "probe " + std::to_string(i));
  }
  out.synthesized = synth_hits.value() - synth_before;
  out.neg_busy = neg_busy.value() - busy_before;
  return out;
}

}  // namespace dfx::bench
