// Micro-benchmarks for the substrate: hashing, signing, zone signing, zone
// copies and re-publishes, the probe+grok analysis path, and the wire and
// master-file codecs (google-benchmark).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
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
#include "server/zonestore.h"
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

void BM_Nsec3Hash(benchmark::State& state) {
  const auto name = dns::Name::of("www.example.com.");
  const Bytes salt = {0xAB, 0xCD};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        zone::nsec3_hash(name, salt,
                         static_cast<std::uint16_t>(state.range(0))));
  }
}
BENCHMARK(BM_Nsec3Hash)->Arg(0)->Arg(10)->Arg(150);

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

// A signed NSEC3 zone of 2,000 hosts (A records under random labels, one
// KSK and one ZSK), the shape serve-miss re-publishes. Built once.
const zone::Zone& signed_nsec3_zone() {
  static const zone::Zone kZone = [] {
    Rng rng(15);
    const auto apex = dns::Name::of("copy.example.");
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
    config.denial = zone::DenialMode::kNsec3;
    return zone::sign_zone(unsigned_zone, keys, config, kDatasetStart);
  }();
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
// argument, the HostedZone build and the displaced version's teardown.
void BM_ZoneStoreUpsert(benchmark::State& state) {
  const zone::Zone& source = signed_nsec3_zone();
  server::ZoneStore store;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.upsert(source));
  }
}
BENCHMARK(BM_ZoneStoreUpsert)->Unit(benchmark::kMillisecond);

// Build the denial index of the same zone: one walk, NSEC3 owner pointers
// and hashes decoded into one flat array (what every re-publish pays).
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
