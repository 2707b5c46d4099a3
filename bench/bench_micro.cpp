// Micro-benchmarks for the substrate: hashing, signing, zone signing, zone
// copies, re-publishes and store lookups, the probe+grok analysis path,
// and the wire and master-file codecs (google-benchmark).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "analyzer/grok.h"
#include "analyzer/probe.h"
#include "authserver/authserver.h"
#include "json/json.h"
#include "dfixer/autofix.h"
#include "crypto/algorithm.h"
#include "crypto/sha1.h"
#include "crypto/sha2.h"
#include "dnscore/masterfile.h"
#include "dnscore/message.h"
#include "dnscore/wire.h"
#include "server/answercache.h"
#include "server/frontend.h"
#include "server/zonestore.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "zone/nsec3.h"
#include "zone/signer.h"
#include "zreplicator/replicate.h"

namespace {

using namespace dfx;

Bytes make_payload(std::size_t size) {
  Rng rng(7);
  Bytes out(size);
  rng.fill(out);
  return out;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes payload = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Sha1(benchmark::State& state) {
  const Bytes payload = make_payload(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::digest(payload));
  }
}
BENCHMARK(BM_Sha1);

// The SHA-1 chain: cycles through 16x more names than nsec3_hash's
// per-thread memo has slots, so a name is always evicted before it comes
// round again and every call hashes.
void BM_Nsec3Hash(benchmark::State& state) {
  std::vector<dns::Name> names;
  for (std::size_t i = 0; i < 16 * zone::kNsec3MemoSlots; ++i) {
    names.push_back(dns::Name::of("h" + std::to_string(i) + ".example.com."));
  }
  const Bytes salt = {0xAB, 0xCD};
  const auto iterations = static_cast<std::uint16_t>(state.range(0));
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(zone::nsec3_hash(names[next], salt, iterations));
    next = next + 1 == names.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_Nsec3Hash)->Arg(0)->Arg(10)->Arg(150);

// The memo's hit path: the same question every time.
void BM_Nsec3HashRepeat(benchmark::State& state) {
  const auto name = dns::Name::of("www.example.com.");
  const Bytes salt = {0xAB, 0xCD};
  const auto iterations = static_cast<std::uint16_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(zone::nsec3_hash(name, salt, iterations));
  }
}
BENCHMARK(BM_Nsec3HashRepeat)->Arg(0)->Arg(150);

// Signing (CRT, two 128-bit modexps) and verification (one 256-bit modexp
// by e = 65537) timed apart, so a change to either shows on its own.
void BM_RsaSign(benchmark::State& state) {
  Rng rng(11);
  const auto key =
      crypto::generate_key(rng, crypto::DnssecAlgorithm::kRsaSha256);
  const Bytes payload = make_payload(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign_message(key, payload));
  }
}
BENCHMARK(BM_RsaSign);

void BM_RsaVerify(benchmark::State& state) {
  Rng rng(11);
  const auto key =
      crypto::generate_key(rng, crypto::DnssecAlgorithm::kRsaSha256);
  const Bytes payload = make_payload(512);
  const Bytes sig = crypto::sign_message(key, payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify_message(
        key.algorithm, key.public_key, payload, sig));
  }
}
BENCHMARK(BM_RsaVerify);

// One RSA-family key per iteration from one advancing stream, so the
// average covers the spread of prime-search lengths the signer sees.
void BM_RsaGenerate(benchmark::State& state) {
  Rng rng(10);
  for (auto _ : state) {
    const auto key =
        crypto::generate_key(rng, crypto::DnssecAlgorithm::kRsaSha256);
    benchmark::DoNotOptimize(key.public_key.data());
  }
}
BENCHMARK(BM_RsaGenerate);

void BM_SchnorrSignVerify(benchmark::State& state) {
  Rng rng(12);
  const auto key =
      crypto::generate_key(rng, crypto::DnssecAlgorithm::kEcdsaP256Sha256);
  const Bytes payload = make_payload(512);
  for (auto _ : state) {
    const Bytes sig = crypto::sign_message(key, payload);
    benchmark::DoNotOptimize(crypto::verify_message(
        key.algorithm, key.public_key, payload, sig));
  }
}
BENCHMARK(BM_SchnorrSignVerify);

void BM_SignZone(benchmark::State& state) {
  Rng rng(13);
  const auto apex = dns::Name::of("bench.example.");
  zone::Zone unsigned_zone(apex);
  dns::SoaRdata soa;
  soa.mname = apex.child("ns1");
  soa.rname = apex.child("hostmaster");
  unsigned_zone.add(apex, dns::RRType::kSOA, 3600, soa);
  unsigned_zone.add(apex, dns::RRType::kNS, 3600,
                    dns::NsRdata{apex.child("ns1")});
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    dns::ARdata a;
    a.address = {10, 0, 0, static_cast<std::uint8_t>(i)};
    unsigned_zone.add(apex.child("host" + std::to_string(i)),
                      dns::RRType::kA, 3600, a);
  }
  zone::KeyStore keys(apex);
  keys.generate(rng, zone::KeyRole::kKsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, 0);
  keys.generate(rng, zone::KeyRole::kZsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, 0);
  zone::SigningConfig config;
  config.denial = zone::DenialMode::kNsec3;
  // Each pass signs one second later: new signed data for every RRset, so
  // the keys' signature memos never answer and every RRSIG is computed.
  UnixTime now = kDatasetStart;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        zone::sign_zone(unsigned_zone, keys, config, ++now));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SignZone)->Arg(10)->Arg(100);

void BM_ProbeGrok(benchmark::State& state) {
  zreplicator::SnapshotSpec spec;
  analyzer::KeyMeta ksk;
  ksk.flags = 0x0101;
  ksk.algorithm = 13;
  analyzer::KeyMeta zsk;
  zsk.flags = 0x0100;
  zsk.algorithm = 13;
  spec.meta.keys = {ksk, zsk};
  auto replication = zreplicator::replicate(spec, 99);
  auto& sandbox = *replication.sandbox;
  // Sandbox::analyze() would return its memo on this unchanged sandbox;
  // time the probe and grok it stands for.
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer::grok(
        analyzer::probe(sandbox.farm(), sandbox.chain(), sandbox.child_apex(),
                        sandbox.clock().now())));
  }
}
BENCHMARK(BM_ProbeGrok);

// What a fix loop pays after a child-only change: re-sign the child (not
// timed), then Sandbox::analyze(), which keeps the base and parent
// verdicts and re-analyses the child alone. BM_ProbeGrok is the same
// analysis done fresh.
void BM_SandboxReanalyzeChildOnly(benchmark::State& state) {
  zreplicator::SnapshotSpec spec;
  analyzer::KeyMeta ksk;
  ksk.flags = 0x0101;
  ksk.algorithm = 13;
  analyzer::KeyMeta zsk;
  zsk.flags = 0x0100;
  zsk.algorithm = 13;
  spec.meta.keys = {ksk, zsk};
  auto replication = zreplicator::replicate(spec, 99);
  auto& sandbox = *replication.sandbox;
  for (auto _ : state) {
    state.PauseTiming();
    sandbox.resign_and_sync(sandbox.child_apex());
    state.ResumeTiming();
    benchmark::DoNotOptimize(sandbox.analyze());
  }
}
BENCHMARK(BM_SandboxReanalyzeChildOnly);

void BM_ReplicateAndFix(benchmark::State& state) {
  zreplicator::SnapshotSpec spec;
  analyzer::KeyMeta ksk;
  ksk.flags = 0x0101;
  ksk.algorithm = 13;
  analyzer::KeyMeta zsk;
  zsk.flags = 0x0100;
  zsk.algorithm = 13;
  spec.meta.keys = {ksk, zsk};
  spec.meta.uses_nsec3 = true;
  spec.meta.nsec3_iterations = 10;
  spec.intended_errors = {analyzer::ErrorCode::kNonzeroIterationCount};
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto replication = zreplicator::replicate(spec, ++seed);
    benchmark::DoNotOptimize(dfixer::auto_fix(*replication.sandbox));
  }
}
BENCHMARK(BM_ReplicateAndFix);

// Sorting and searching names in canonical order: every comparison folds
// case, over mixed-case names that share their upper labels.
void BM_NameCompare(benchmark::State& state) {
  Rng rng(14);
  std::vector<dns::Name> names;
  for (int i = 0; i < 1000; ++i) {
    std::string label = "Host" + std::to_string(rng.uniform(100000));
    if (rng.uniform(2) == 0) label[0] = 'h';
    names.push_back(dns::Name::of(label + (i % 2 == 0 ? ".Zone.Example."
                                                      : ".zone.EXAMPLE.")));
  }
  const std::set<dns::Name> sorted(names.begin(), names.end());
  for (auto _ : state) {
    std::size_t found = 0;
    for (const auto& name : names) found += sorted.count(name);
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(names.size()));
}
BENCHMARK(BM_NameCompare);

// A full ancestor walk of a 4-label name through parent(), down to root:
// the shape of every zone-cut and closest-encloser walk on the miss path.
void BM_NameParent(benchmark::State& state) {
  Rng rng(16);
  std::vector<dns::Name> names;
  for (int i = 0; i < 64; ++i) {
    names.push_back(dns::Name::of(
        "w" + std::to_string(rng.uniform(100000)) + ".Host.zone.example."));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    dns::Name cur = names[i++ % names.size()];
    std::size_t steps = 0;
    while (!cur.is_root()) {
      cur = cur.parent();
      ++steps;
    }
    benchmark::DoNotOptimize(steps);
    benchmark::DoNotOptimize(cur);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NameParent);

// WireReader::read_name on a question name compressed against an earlier
// name: one label, then a pointer to "zone.example." at offset 12.
void BM_NameFromWire(benchmark::State& state) {
  Rng rng(17);
  Bytes message(12, 0);
  append(message, dns::Name::of("zone.Example.").to_wire());
  std::vector<std::size_t> starts;
  for (int i = 0; i < 64; ++i) {
    starts.push_back(message.size());
    const std::string label = "host" + std::to_string(rng.uniform(100000));
    message.push_back(static_cast<std::uint8_t>(label.size()));
    append(message, as_bytes(label));
    append_u16(message, static_cast<std::uint16_t>(0xC000 | 12));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    dns::WireReader reader(message);
    reader.seek(starts[i++ % starts.size()]);
    auto name = reader.read_name();
    benchmark::DoNotOptimize(name);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NameFromWire);

// A signed zone of 2,000 hosts (A records under random 8-letter labels,
// one KSK and one ZSK), the shape serve-miss re-publishes, and its keys.
struct HostZone {
  zone::Zone zone;
  zone::KeyStore keys;
};

HostZone host_zone_and_keys(std::string_view apex_text,
                            zone::DenialMode denial, std::uint64_t seed) {
  Rng rng(seed);
  const auto apex = dns::Name::of(apex_text);
  zone::Zone unsigned_zone(apex);
  dns::SoaRdata soa;
  soa.mname = apex.child("ns1");
  soa.rname = apex.child("hostmaster");
  unsigned_zone.add(apex, dns::RRType::kSOA, 3600, soa);
  unsigned_zone.add(apex, dns::RRType::kNS, 3600,
                    dns::NsRdata{apex.child("ns1")});
  std::set<std::string> labels;
  while (labels.size() < 2000) {
    std::string label;
    for (int i = 0; i < 8; ++i) {
      label.push_back(static_cast<char>('a' + rng.uniform(26)));
    }
    labels.insert(label);
  }
  dns::ARdata a;
  std::uint32_t host = 0;
  for (const auto& label : labels) {
    a.address = {198, 51, static_cast<std::uint8_t>(host >> 8),
                 static_cast<std::uint8_t>(host & 0xFF)};
    unsigned_zone.add(apex.child(label), dns::RRType::kA, 3600, a);
    ++host;
  }
  zone::KeyStore keys(apex);
  keys.generate(rng, zone::KeyRole::kKsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, 0);
  keys.generate(rng, zone::KeyRole::kZsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, 0);
  zone::SigningConfig config;
  config.denial = denial;
  zone::Zone signed_zone =
      zone::sign_zone(unsigned_zone, keys, config, kDatasetStart);
  return {std::move(signed_zone), std::move(keys)};
}

zone::Zone host_zone(std::string_view apex_text, zone::DenialMode denial,
                     std::uint64_t seed) {
  return host_zone_and_keys(apex_text, denial, seed).zone;
}

// The NSEC3 host zone. Built once.
const zone::Zone& signed_nsec3_zone() {
  static const zone::Zone kZone =
      host_zone("copy.example.", zone::DenialMode::kNsec3, 15);
  return kZone;
}

// Copy a signed zone, then write to the copy once: the copy shares the
// records and the first write clones them. The copy's teardown is timed too.
void BM_ZoneCopy(benchmark::State& state) {
  const zone::Zone& source = signed_nsec3_zone();
  for (auto _ : state) {
    zone::Zone copy = source;
    copy.bump_serial();
    benchmark::DoNotOptimize(copy.soa());
  }
}
BENCHMARK(BM_ZoneCopy)->Unit(benchmark::kMillisecond);

// Re-publish a zone the caller keeps (no admission policy): the by-value
// argument, the HostedZone build (it shares the hosted version's
// DenialIndex: the same zone has the same chain stamp) and the displaced
// version's teardown.
void BM_ZoneStoreUpsert(benchmark::State& state) {
  const zone::Zone& source = signed_nsec3_zone();
  server::ZoneStore store;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.upsert(source));
  }
}
BENCHMARK(BM_ZoneStoreUpsert)->Unit(benchmark::kMicrosecond);

// Load a new version of the NSEC3 host zone with no version hosted before
// it: the zone copy plus a full DenialIndex build.
void BM_LoadVersion(benchmark::State& state) {
  const zone::Zone& source = signed_nsec3_zone();
  for (auto _ : state) {
    benchmark::DoNotOptimize(authserver::load_version(source));
  }
}
BENCHMARK(BM_LoadVersion)->Unit(benchmark::kMicrosecond);

// An incremental re-sign re-published: each iteration clones the hosted
// version afresh, bumps its SOA serial and makes the SOA RRSIG again (all
// untimed), then times ZoneStore::upsert alone, which shares the hosted
// version's DenialIndex. The displaced version is released untimed, as
// when its publisher still holds it.
void BM_RepublishIncremental(benchmark::State& state) {
  static const HostZone kHost =
      host_zone_and_keys("copy.example.", zone::DenialMode::kNsec3, 15);
  const dns::Name& apex = kHost.zone.apex();
  const auto zsks = kHost.keys.active_with_role(kDatasetStart,
                                                zone::KeyRole::kZsk);
  server::ZoneStore store;
  if (!store.upsert(kHost.zone)) state.SkipWithError("upsert refused");
  UnixTime inception = kDatasetStart;
  for (auto _ : state) {
    state.PauseTiming();
    std::shared_ptr<const server::HostedZone> displaced =
        store.find(apex, dns::RRType::kSOA);
    zone::Zone next = displaced->zone;
    next.bump_serial();
    const dns::RRset* old_sigs = next.find(apex, dns::RRType::kRRSIG);
    dns::RRset sigs(apex, dns::RRType::kRRSIG, old_sigs->ttl());
    for (const auto& rdata : old_sigs->rdatas()) {
      if (std::get<dns::RrsigRdata>(rdata).type_covered !=
          dns::RRType::kSOA) {
        sigs.add(rdata);
      }
    }
    const dns::RRset* soa = next.find(apex, dns::RRType::kSOA);
    ++inception;  // new signed data, so the key's memo never answers
    for (const auto* key : zsks) {
      sigs.add(zone::make_rrsig(*soa, *key, apex, inception,
                                inception + 30 * kDay));
    }
    next.put(std::move(sigs));
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.upsert(std::move(next)));
    state.PauseTiming();
    displaced.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_RepublishIncremental)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(200);

// ZoneStore::find's ancestor walk. Arg 0: hosted zones ("example." and
// z0.example. ... below it). Arg 1: 0 asks A at the 4-label
// www.host.z0.example. (three candidates), 1 asks DS at the apex
// z0.example. (the parent side, example., answers).
void BM_ZoneStoreFind(benchmark::State& state) {
  server::ZoneStore store;
  store.upsert(zone::Zone(dns::Name::of("example.")));
  for (std::int64_t i = 0; i + 1 < state.range(0); ++i) {
    store.upsert(
        zone::Zone(dns::Name::of("z" + std::to_string(i) + ".example.")));
  }
  const dns::Name apex = dns::Name::of("z0.example.");
  const bool apex_ds = state.range(1) == 1;
  const dns::Name qname = apex_ds ? apex : apex.child("host").child("www");
  const dns::RRType qtype = apex_ds ? dns::RRType::kDS : dns::RRType::kA;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.find(qname, qtype));
  }
}
BENCHMARK(BM_ZoneStoreFind)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// The packet tier's hit path: a lookup that finds its key and reads the
// body. Arg 0: each thread cycles through 64 keys of its own; Arg 1: every
// thread looks up the one shared key (all hits land on one shard).
void BM_AnswerCacheHit(benchmark::State& state) {
  constexpr std::size_t kKeysPerThread = 64;
  static server::AnswerCache cache;
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> out;
    server::AnswerBody body;
    body.ancount = 1;
    body.bytes = Bytes(96, 0x5A);
    for (std::size_t i = 0; i < 16 * kKeysPerThread; ++i) {
      std::string key = server::AnswerCache::key_of(
          dns::Name::of("k" + std::to_string(i) + ".example."),
          dns::RRType::kA, true);
      cache.insert(key, body, cache.epoch());
      out.push_back(std::move(key));
    }
    return out;
  }();
  const bool shared_key = state.range(0) == 1;
  const std::size_t base =
      static_cast<std::size_t>(state.thread_index()) * kKeysPerThread;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto hit = cache.lookup(keys[shared_key ? 0 : base + next]);
    if (!hit) {
      state.SkipWithError("cache miss");
      break;
    }
    benchmark::DoNotOptimize((*hit).bytes.size());
    next = next + 1 == kKeysPerThread ? 0 : next + 1;
  }
}
BENCHMARK(BM_AnswerCacheHit)
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

// One event counted from every thread into the same counter.
void BM_CounterAdd(benchmark::State& state) {
  static metrics::Counter counter;
  for (auto _ : state) counter.add();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterAdd)->Threads(1)->Threads(4)->UseRealTime();

// Build the denial index of the same zone: one walk, NSEC3 owner names
// and hashes decoded into one flat array (what every re-publish that
// changes the denial chain pays).
void BM_DenialIndexBuild(benchmark::State& state) {
  const zone::Zone& source = signed_nsec3_zone();
  for (auto _ : state) {
    const authserver::DenialIndex index(source);
    benchmark::DoNotOptimize(index.nsec3_predecessor(Bytes(20, 0x80)));
  }
}
BENCHMARK(BM_DenialIndexBuild)->Unit(benchmark::kMillisecond);

void BM_MessageRoundTrip(benchmark::State& state) {
  dns::Message msg;
  msg.header.qr = true;
  msg.questions.push_back(
      {dns::Name::of("www.example.com."), dns::RRType::kA,
       dns::RRClass::kIN});
  for (int i = 0; i < 8; ++i) {
    dns::ARdata a;
    a.address = {192, 0, 2, static_cast<std::uint8_t>(i)};
    msg.answers.push_back({dns::Name::of("www.example.com."),
                           dns::RRType::kA, dns::RRClass::kIN, 300,
                           dns::Rdata(a)});
  }
  for (auto _ : state) {
    const Bytes wire = dns::encode_message(msg);
    benchmark::DoNotOptimize(dns::decode_message(wire));
  }
}
BENCHMARK(BM_MessageRoundTrip);

// A cache-off miss through WireFrontend::serve (DO set), as serve-miss
// sends it: a store hosting a 2,000-host NSEC zone and a 2,000-host NSEC3
// zone. Arg: 0 NXDOMAIN in the NSEC zone, 1 NXDOMAIN in the NSEC3 zone,
// 2 NODATA (MX at a host of the NSEC3 zone), 3 positive (A at a host of
// the NSEC3 zone). The NXDOMAIN names cycle through 4,096 labels, more
// than the NSEC3 hash memo holds.
struct ServeMissFixture {
  server::ZoneStore store;
  server::WireFrontend frontend{store};
  std::vector<dns::Name> hosts;

  ServeMissFixture() {
    store.upsert(host_zone("nsec.example.", zone::DenialMode::kNsec, 16));
    const zone::Zone& nsec3 = signed_nsec3_zone();
    store.upsert(nsec3);
    for (const auto& owner : nsec3.owner_names()) {
      if (nsec3.find(owner, dns::RRType::kA) != nullptr) hosts.push_back(owner);
    }
  }

  static Bytes query(const dns::Name& qname, dns::RRType qtype) {
    dns::Message msg;
    msg.questions.push_back({qname, qtype, dns::RRClass::kIN});
    dns::EdnsInfo edns;
    edns.udp_size = 1232;
    edns.do_bit = true;
    msg.edns = edns;
    return dns::encode_message(msg);
  }

  std::vector<Bytes> queries(std::int64_t kind) const {
    std::vector<Bytes> out;
    for (std::size_t i = 0; i < 4096; ++i) {
      const std::string label = "nx" + std::to_string(i);
      switch (kind) {
        case 0:
          out.push_back(query(dns::Name::of("nsec.example.").child(label),
                              dns::RRType::kA));
          break;
        case 1:
          out.push_back(query(dns::Name::of("copy.example.").child(label),
                              dns::RRType::kA));
          break;
        case 2:
          out.push_back(query(hosts[i % hosts.size()], dns::RRType::kMX));
          break;
        default:
          out.push_back(query(hosts[i % hosts.size()], dns::RRType::kA));
          break;
      }
    }
    return out;
  }
};

const ServeMissFixture& serve_miss_fixture() {
  static const ServeMissFixture kFixture;
  return kFixture;
}

void BM_ServeMiss(benchmark::State& state) {
  const ServeMissFixture& f = serve_miss_fixture();
  const std::vector<Bytes> queries = f.queries(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.frontend.serve(queries[i]));
    i = (i + 1) % queries.size();
  }
}
BENCHMARK(BM_ServeMiss)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Cache-on misses from 1 and 4 threads through one shared frontend, cache
// and store (the hosts of BM_ServeMiss): NXDOMAINs alternating between
// the NSEC and the NSEC3 zone, each name the thread's own. Every miss
// tries the RFC 8198 tier and harvests the answer it computes; a thread
// empties the cache after each pass over its 1,024 names, as a re-publish
// does, so the packet tier never answers a repeat. Real time against CPU
// time shows how long the threads wait for one another.
void BM_ServeMissCached(benchmark::State& state) {
  struct Shared {
    server::AnswerCache cache;
    server::WireFrontend frontend;
    Shared() : frontend(serve_miss_fixture().store, &cache) {}
  };
  static Shared shared;
  const std::string prefix = "t" + std::to_string(state.thread_index()) + "-";
  std::vector<Bytes> queries;
  for (int i = 0; i < 1024; ++i) {
    const char* apex = i % 2 == 0 ? "nsec.example." : "copy.example.";
    queries.push_back(ServeMissFixture::query(
        dns::Name::of(apex).child(prefix + std::to_string(i)),
        dns::RRType::kA));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shared.frontend.serve(queries[i]));
    if (++i == queries.size()) {
      i = 0;
      shared.cache.invalidate_all();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeMissCached)->Threads(1)->Threads(4)->UseRealTime();

// The miss path's encoder alone: the body of one NSEC3 NXDOMAIN answer
// (SOA, three NSEC3 records and their RRSIGs). Arg: the DO bit.
void BM_EncodeBody(benchmark::State& state) {
  const auto hosted = authserver::load_version(signed_nsec3_zone());
  const dns::Name qname = hosted->zone.apex().child("nx-encode");
  const dns::Question question{qname, dns::RRType::kA, dns::RRClass::kIN};
  const auto result = authserver::answer(hosted, qname, dns::RRType::kA);
  const bool do_bit = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server::WireFrontend::build_body(question, result, do_bit));
  }
}
BENCHMARK(BM_EncodeBody)->Arg(1)->Arg(0);

// The master-file tokenizer and RDATA text parsers over a few hundred
// printed records (the parser's one timer).
void BM_MasterFileParse(benchmark::State& state) {
  Rng rng(13);
  std::vector<dns::ResourceRecord> records;
  for (int i = 0; i < 80; ++i) {
    const auto owner =
        dns::Name::of("host" + std::to_string(i) + ".example.com.");
    dns::ARdata a;
    rng.fill(a.address);
    records.push_back(
        {owner, dns::RRType::kA, dns::RRClass::kIN, 300, dns::Rdata(a)});
    records.push_back({owner, dns::RRType::kMX, dns::RRClass::kIN, 300,
                       dns::Rdata(dns::MxRdata{
                           10, dns::Name::of("mail.example.com.")})});
    dns::TxtRdata txt;
    txt.strings = {"v=spf1 -all", "id=" + std::to_string(i)};
    records.push_back(
        {owner, dns::RRType::kTXT, dns::RRClass::kIN, 300, dns::Rdata(txt)});
    dns::DsRdata ds;
    ds.key_tag = static_cast<std::uint16_t>(i);
    ds.algorithm = 13;
    ds.digest_type = 2;
    ds.digest.resize(32);
    rng.fill(ds.digest);
    records.push_back(
        {owner, dns::RRType::kDS, dns::RRClass::kIN, 300, dns::Rdata(ds)});
  }
  const std::string text = dns::print_master_file(records);
  for (auto _ : state) {
    const auto parsed = dns::parse_master_file(text, dns::Name::root());
    if (!std::holds_alternative<std::vector<dns::ResourceRecord>>(parsed)) {
      state.SkipWithError("parse_master_file rejected its own output");
      break;
    }
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_MasterFileParse);

}  // namespace

// Expanded BENCHMARK_MAIN() so the binary also emits BENCH_micro.json
// (google-benchmark owns the CLI flags, so this bench takes no --json-dir;
// the file lands in the working directory).
int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  json::Object root;
  root["bench"] = json::Value(std::string("micro"));
  root["schema_version"] = json::Value(static_cast<std::int64_t>(1));
  root["wall_seconds"] = json::Value(wall);
  root["items"] = json::Value(static_cast<std::int64_t>(ran));
  root["items_per_second"] = json::Value(
      wall > 0.0 ? static_cast<double>(ran) / wall : 0.0);
  root["hardware_concurrency"] = json::Value(
      static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  std::ofstream out("BENCH_micro.json");
  if (!out) {
    std::fprintf(stderr, "bench: cannot write BENCH_micro.json\n");
    return 1;
  }
  out << json::serialize_pretty(json::Value(std::move(root))) << "\n";
  return out.good() ? 0 : 1;
}
