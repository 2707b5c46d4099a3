// Wire-level serving engine tests: WireFrontend byte-in/byte-out behavior,
// ZoneStore snapshot semantics under concurrent readers, and AnswerCache
// bit-identity (packet tier + RFC 8198 aggressive synthesis) against the
// cache-off zone walk.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <latch>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "dnscore/message.h"
#include "server/frontend.h"
#include "util/metrics.h"
#include "zone/signer.h"

namespace dfx::server {
namespace {

using dns::Name;
using dns::RRType;

constexpr UnixTime kNow = kDatasetStart;

zone::Zone build_child_zone(const Name& apex, zone::DenialMode denial,
                            zone::KeyStore& keys, Rng& rng,
                            std::array<std::uint8_t, 4> www_address = {
                                192, 0, 2, 1}) {
  zone::Zone unsigned_zone(apex);
  dns::SoaRdata soa;
  soa.mname = apex.child("ns1");
  soa.rname = apex.child("hostmaster");
  unsigned_zone.add(apex, RRType::kSOA, 3600, soa);
  unsigned_zone.add(apex, RRType::kNS, 3600, dns::NsRdata{apex.child("ns1")});
  dns::ARdata a;
  a.address = {192, 0, 2, 53};
  unsigned_zone.add(apex.child("ns1"), RRType::kA, 3600, a);
  dns::ARdata www;
  www.address = www_address;
  unsigned_zone.add(apex.child("www"), RRType::kA, 3600, www);
  unsigned_zone.add(apex.child("alias"), RRType::kCNAME, 3600,
                    dns::CnameRdata{apex.child("www")});
  unsigned_zone.add(apex.child("wild").child("*"), RRType::kA, 3600, a);
  unsigned_zone.add(apex.child("ent").child("deep"), RRType::kTXT, 3600,
                    dns::TxtRdata{{"ent"}});
  // A fat TXT RRset (~2 KB) so truncation tests overflow a 512-byte reply.
  for (int i = 0; i < 20; ++i) {
    unsigned_zone.add(apex.child("big"), RRType::kTXT, 3600,
                      dns::TxtRdata{{std::string(100, 'a' + i % 26)}});
  }
  const Name cut = apex.child("sub");
  unsigned_zone.add(cut, RRType::kNS, 3600, dns::NsRdata{cut.child("ns")});
  unsigned_zone.add(cut.child("ns"), RRType::kA, 3600, a);
  dns::DsRdata ds;
  ds.key_tag = 7;
  ds.algorithm = 13;
  ds.digest_type = 2;
  ds.digest.assign(32, 0x11);
  unsigned_zone.add(cut, RRType::kDS, 3600, ds);

  if (keys.empty()) {
    keys.generate(rng, zone::KeyRole::kKsk,
                  crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
    keys.generate(rng, zone::KeyRole::kZsk,
                  crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
  }
  zone::SigningConfig config;
  config.denial = denial;
  if (denial == zone::DenialMode::kNsec3) {
    config.nsec3_iterations = 1;
    config.nsec3_salt = {0xCD};
  }
  return zone::sign_zone(unsigned_zone, keys, config, kNow);
}

/// A recursion-desired query; `udp_size` 0 sends no OPT record.
Bytes encode_query(const Name& qname, RRType qtype, bool do_bit = true,
                   std::uint16_t udp_size = 4096, std::uint16_t id = 0x1234) {
  dns::Message msg;
  msg.header.id = id;
  msg.header.rd = true;
  msg.questions.push_back({qname, qtype, dns::RRClass::kIN});
  if (udp_size != 0) {
    dns::EdnsInfo edns;
    edns.udp_size = udp_size;
    edns.do_bit = do_bit;
    msg.edns = edns;
  }
  return dns::encode_message(msg);
}

/// Store hosting a signed child plus its (unsigned) parent, with a cache-on
/// and a cache-off frontend over the same store.
struct Fixture {
  Name parent_apex = Name::of("test.");
  Name apex = Name::of("example.test.");
  zone::KeyStore keys{apex};
  Rng rng{55};
  ZoneStore store;
  AnswerCache cache;
  WireFrontend cached{store, &cache};
  WireFrontend uncached{store, nullptr};

  explicit Fixture(zone::DenialMode denial = zone::DenialMode::kNsec) {
    connect_invalidation(store, cache);
    store.upsert(build_child_zone(apex, denial, keys, rng));
    zone::Zone parent(parent_apex);
    dns::SoaRdata soa;
    soa.mname = parent_apex.child("ns1");
    soa.rname = parent_apex.child("hostmaster");
    parent.add(parent_apex, RRType::kSOA, 3600, soa);
    parent.add(parent_apex, RRType::kNS, 3600,
               dns::NsRdata{parent_apex.child("ns1")});
    parent.add(apex, RRType::kNS, 3600, dns::NsRdata{apex.child("ns1")});
    const auto* ksk = keys.active_with_role(kNow, zone::KeyRole::kKsk)[0];
    parent.add(apex, RRType::kDS, 3600,
               zone::make_ds(*ksk, crypto::DigestType::kSha256));
    store.upsert(std::move(parent));
  }

  Bytes query_bytes(const Name& qname, RRType qtype, bool do_bit = true,
                    std::uint16_t udp_size = 4096,
                    std::uint16_t id = 0x1234) const {
    return encode_query(qname, qtype, do_bit, udp_size, id);
  }

  dns::Message serve_decoded(const Bytes& query) const {
    const Bytes response = cached.serve(query);
    const auto decoded = dns::decode_message(response);
    EXPECT_TRUE(decoded.has_value());
    return decoded.value_or(dns::Message{});
  }
};

std::int64_t counter(const char* name) {
  return metrics::Registry::global().counter(name).value();
}

/// A message section or an answer's section, one record per line.
template <typename Records>
std::string section_text(const Records& records) {
  std::string text;
  for (const auto& rr : records) {
    text += rr.to_text();
    text += '\n';
  }
  return text;
}

// ---------------------------------------------------------------------------
// Frontend end-to-end answers

TEST(WireFrontend, PositiveAnswerCarriesSignaturesAndEchoesId) {
  Fixture f;
  const auto msg = f.serve_decoded(
      f.query_bytes(f.apex.child("www"), RRType::kA, true, 4096, 0xBEEF));
  EXPECT_EQ(msg.header.id, 0xBEEF);
  EXPECT_TRUE(msg.header.qr);
  EXPECT_TRUE(msg.header.aa);
  EXPECT_TRUE(msg.header.rd);  // RD echoed
  EXPECT_EQ(msg.header.rcode, dns::RCode::kNoError);
  ASSERT_EQ(msg.questions.size(), 1u);
  EXPECT_EQ(msg.questions[0].qname, f.apex.child("www"));
  bool saw_a = false;
  bool saw_rrsig = false;
  for (const auto& rr : msg.answers) {
    saw_a |= rr.type == RRType::kA;
    saw_rrsig |= rr.type == RRType::kRRSIG;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_rrsig);
  ASSERT_TRUE(msg.edns.has_value());
  EXPECT_TRUE(msg.edns->do_bit);  // DO echoed
}

TEST(WireFrontend, DoBitClearStripsDnssecRecords) {
  Fixture f;
  const auto msg = f.serve_decoded(
      f.query_bytes(f.apex.child("www"), RRType::kA, /*do_bit=*/false));
  EXPECT_EQ(msg.header.rcode, dns::RCode::kNoError);
  for (const auto& rr : msg.answers) {
    EXPECT_NE(rr.type, RRType::kRRSIG);
  }
  for (const auto& rr : msg.authorities) {
    EXPECT_NE(rr.type, RRType::kRRSIG);
    EXPECT_NE(rr.type, RRType::kNSEC);
    EXPECT_NE(rr.type, RRType::kNSEC3);
  }
  ASSERT_TRUE(msg.edns.has_value());
  EXPECT_FALSE(msg.edns->do_bit);
}

TEST(WireFrontend, NxdomainNodataReferralAndWildcardShapes) {
  for (const auto denial :
       {zone::DenialMode::kNsec, zone::DenialMode::kNsec3}) {
    Fixture f(denial);
    auto nx = f.serve_decoded(
        f.query_bytes(f.apex.child("no-such-name"), RRType::kA));
    EXPECT_EQ(nx.header.rcode, dns::RCode::kNXDomain);
    bool saw_soa = false;
    for (const auto& rr : nx.authorities) saw_soa |= rr.type == RRType::kSOA;
    EXPECT_TRUE(saw_soa);

    auto nodata = f.serve_decoded(
        f.query_bytes(f.apex.child("www"), RRType::kMX));
    EXPECT_EQ(nodata.header.rcode, dns::RCode::kNoError);
    EXPECT_TRUE(nodata.answers.empty());

    auto wild = f.serve_decoded(
        f.query_bytes(f.apex.child("wild").child("anything"), RRType::kA));
    EXPECT_EQ(wild.header.rcode, dns::RCode::kNoError);
    EXPECT_FALSE(wild.answers.empty());

    auto referral = f.serve_decoded(f.query_bytes(
        f.apex.child("sub").child("deep"), RRType::kA));
    EXPECT_EQ(referral.header.rcode, dns::RCode::kNoError);
    EXPECT_FALSE(referral.header.aa);
    bool saw_ns = false;
    for (const auto& rr : referral.authorities) {
      saw_ns |= rr.type == RRType::kNS;
    }
    EXPECT_TRUE(saw_ns);
  }
}

TEST(WireFrontend, ApexDsServedFromParentZone) {
  Fixture f;
  const auto msg = f.serve_decoded(f.query_bytes(f.apex, RRType::kDS));
  EXPECT_EQ(msg.header.rcode, dns::RCode::kNoError);
  bool saw_ds = false;
  for (const auto& rr : msg.answers) saw_ds |= rr.type == RRType::kDS;
  EXPECT_TRUE(saw_ds);
}

TEST(WireFrontend, UnhostedNameIsRefused) {
  Fixture f;
  const auto msg =
      f.serve_decoded(f.query_bytes(Name::of("elsewhere.example."),
                                    RRType::kA));
  EXPECT_EQ(msg.header.rcode, dns::RCode::kRefused);
  EXPECT_TRUE(msg.answers.empty());
}

TEST(WireFrontend, NonInternetClassIsRefused) {
  Fixture f;
  // The typed API only models IN, so craft a CHAOS-class question by hand.
  Bytes q = {0, 7, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0};
  const Bytes qname = f.apex.child("www").to_wire();
  q.insert(q.end(), qname.begin(), qname.end());
  q.push_back(0);
  q.push_back(1);  // qtype A
  q.push_back(0);
  q.push_back(3);  // class CH
  const Bytes response = f.cached.serve(q);
  ASSERT_GE(response.size(), 12u);
  EXPECT_EQ(response[3] & 0x0F, 5);  // REFUSED
}

TEST(WireFrontend, QnameWithRefusedOctetIsRefusedByteForByte) {
  Fixture f;
  // "w w.example.test." (a space inside the first label) passes the
  // question scan, which checks label lengths only, and fails read_name.
  Bytes question = {3, 'w', ' ', 'w'};
  append(question, f.apex.to_wire());
  append(question, Bytes{0, 1, 0, 1});  // qtype A, class IN
  Bytes query = {0x42, 0x42, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0};
  append(query, question);
  // Header: same id, QR + RD, RCODE 5 (REFUSED), one question, no records;
  // then the question, verbatim.
  Bytes expected = {0x42, 0x42, 0x81, 0x05, 0, 1, 0, 0, 0, 0, 0, 0};
  append(expected, question);
  EXPECT_EQ(f.uncached.serve(query), expected);
  EXPECT_EQ(f.cached.serve(query), expected);
  EXPECT_EQ(f.cached.serve(query), expected);  // the cached REFUSED body
}

// ---------------------------------------------------------------------------
// Transport-level behavior: EDNS negotiation, truncation, 0x20 echo

TEST(WireFrontend, TruncatesToClientBufferSize) {
  Fixture f;
  // The ~2 KB TXT RRset will not fit a 512-byte buffer.
  const auto msg = f.serve_decoded(
      f.query_bytes(f.apex.child("big"), RRType::kTXT, true, 512));
  EXPECT_TRUE(msg.header.tc);
  EXPECT_TRUE(msg.answers.empty());
  ASSERT_TRUE(msg.edns.has_value());  // OPT still attached when truncating
  const Bytes response = f.cached.serve(
      f.query_bytes(f.apex.child("big"), RRType::kTXT, true, 512));
  EXPECT_LE(response.size(), 512u);

  // The same answer fits a 4096-byte buffer untruncated.
  const auto big = f.serve_decoded(
      f.query_bytes(f.apex.child("big"), RRType::kTXT, true, 4096));
  EXPECT_FALSE(big.header.tc);
  EXPECT_FALSE(big.answers.empty());
}

TEST(WireFrontend, ClassicQueryLimitedTo512WithoutOpt) {
  Fixture f;
  const Bytes query = f.query_bytes(f.apex.child("big"), RRType::kTXT,
                                    false, 0);
  const Bytes response = f.cached.serve(query);
  EXPECT_LE(response.size(), 512u);
  const auto msg = dns::decode_message(response);
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->header.tc);
  EXPECT_FALSE(msg->edns.has_value());  // no OPT for a non-EDNS client
}

TEST(WireFrontend, EdnsBufferFloorIs512) {
  Fixture f;
  // An absurd advertised size of 100 must be treated as 512 (RFC 6891).
  const Bytes response = f.cached.serve(
      f.query_bytes(f.apex.child("big"), RRType::kTXT, true, 100));
  const auto msg = dns::decode_message(response);
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->header.tc);
  EXPECT_GT(response.size(), 12u);
  EXPECT_LE(response.size(), 512u);
}

TEST(WireFrontend, MixedCaseSpellingIsEchoedAndSharesCacheEntry) {
  Fixture f;
  const Bytes lower = f.query_bytes(f.apex.child("www"), RRType::kA);
  const Bytes upper = f.query_bytes(
      Name::of("wWw.ExAmPlE.tEsT."), RRType::kA);
  const Bytes first = f.cached.serve(lower);
  const std::int64_t hits_before = counter("server.cache.hits");
  const Bytes second = f.cached.serve(upper);
  // Same cached body, different question spelling: a packet-tier hit.
  EXPECT_EQ(counter("server.cache.hits"), hits_before + 1);
  const auto decoded = dns::decode_message(second);
  ASSERT_TRUE(decoded.has_value());
  // The response must echo the client's exact spelling, byte for byte.
  const Bytes echoed_qname = decoded->questions.at(0).qname.to_wire();
  const Bytes asked_qname = Name::of("wWw.ExAmPlE.tEsT.").to_wire();
  EXPECT_EQ(echoed_qname, asked_qname);
  // The answer owner compresses against the question, so it inherits the
  // client's spelling too — the same cached body, two spellings.
  ASSERT_FALSE(decoded->answers.empty());
  EXPECT_EQ(decoded->answers[0].owner.to_wire(), asked_qname);
  // Case-folded, both responses carry identical record content.
  const auto lower_msg = dns::decode_message(first);
  ASSERT_TRUE(lower_msg.has_value());
  auto folded = [](std::string text) {
    for (char& c : text) c = static_cast<char>(std::tolower(c));
    return text;
  };
  EXPECT_EQ(folded(section_text(lower_msg->answers)),
            folded(section_text(decoded->answers)));
}

TEST(WireFrontend, CacheKeyOfMatchesFrontendInlineKey) {
  Fixture f;
  const Name qname = Name::of("WwW.eXaMpLe.TeSt.");
  f.cached.serve(f.query_bytes(qname, RRType::kA));
  // The frontend built its key inline from raw bytes; key_of builds it from
  // the parsed Name. Both must address the same entry.
  const std::string key = AnswerCache::key_of(qname, RRType::kA, true);
  EXPECT_TRUE(f.cache.lookup(key));
  EXPECT_FALSE(f.cache.lookup(AnswerCache::key_of(qname, RRType::kA, false)));
}

// ---------------------------------------------------------------------------
// Error handling: FORMERR / NOTIMP / BADVERS / drops

Bytes raw_query_header(std::uint16_t id, std::uint16_t flags,
                       std::uint16_t qdcount) {
  Bytes b = {static_cast<std::uint8_t>(id >> 8),
             static_cast<std::uint8_t>(id & 0xFF),
             static_cast<std::uint8_t>(flags >> 8),
             static_cast<std::uint8_t>(flags & 0xFF),
             static_cast<std::uint8_t>(qdcount >> 8),
             static_cast<std::uint8_t>(qdcount & 0xFF)};
  b.resize(12, 0);
  return b;
}

void append_question(Bytes& b, const Name& qname, RRType qtype) {
  const Bytes wire = qname.to_wire();
  b.insert(b.end(), wire.begin(), wire.end());
  const auto t = static_cast<std::uint16_t>(qtype);
  b.push_back(static_cast<std::uint8_t>(t >> 8));
  b.push_back(static_cast<std::uint8_t>(t & 0xFF));
  b.push_back(0);
  b.push_back(1);  // IN
}

TEST(WireFrontend, ShortPacketAndResponsesAreDropped) {
  Fixture f;
  EXPECT_TRUE(f.cached.serve(Bytes{}).empty());
  EXPECT_TRUE(f.cached.serve(Bytes{0x12, 0x34}).empty());
  // QR already set: a response, not a query — drop, don't loop.
  Bytes response_bits = raw_query_header(1, 0x8000, 1);
  append_question(response_bits, f.apex.child("www"), RRType::kA);
  EXPECT_TRUE(f.cached.serve(response_bits).empty());
}

TEST(WireFrontend, UnknownOpcodeGetsNotimp) {
  Fixture f;
  Bytes q = raw_query_header(42, 0x2800, 0);  // opcode 5 (UPDATE)
  const Bytes response = f.cached.serve(q);
  ASSERT_EQ(response.size(), 12u);
  EXPECT_EQ(response[3] & 0x0F, 4);  // NOTIMP
  EXPECT_EQ((response[2] >> 3) & 0x0F, 5);  // opcode echoed
  EXPECT_TRUE((response[2] & 0x80) != 0);   // QR set
}

TEST(WireFrontend, MalformedPacketsGetFormerr) {
  Fixture f;
  const auto expect_formerr = [&](Bytes q, const char* what) {
    const Bytes response = f.cached.serve(q);
    ASSERT_GE(response.size(), 12u) << what;
    EXPECT_EQ(response[3] & 0x0F, 1) << what;  // FORMERR
  };
  expect_formerr(raw_query_header(1, 0x0000, 0), "qdcount 0");
  expect_formerr(raw_query_header(1, 0x0000, 2), "qdcount 2");

  Bytes truncated = raw_query_header(1, 0x0000, 1);
  truncated.push_back(5);
  truncated.push_back('t');  // label promises 5 bytes, delivers 1
  expect_formerr(truncated, "truncated qname");

  Bytes compressed = raw_query_header(1, 0x0000, 1);
  compressed.push_back(0xC0);  // compression pointer in QNAME
  compressed.push_back(0x00);
  compressed.resize(compressed.size() + 4, 0);
  expect_formerr(compressed, "compressed qname");

  Bytes trailing = raw_query_header(1, 0x0000, 1);
  append_question(trailing, f.apex.child("www"), RRType::kA);
  trailing.push_back(0xFF);  // junk after the last section
  expect_formerr(trailing, "trailing bytes");

  Bytes oversized_label = raw_query_header(1, 0x0000, 1);
  oversized_label.push_back(0x40);  // label length 64 > 63 (reserved bits)
  oversized_label.resize(oversized_label.size() + 64 + 5, 'a');
  expect_formerr(oversized_label, "label length 64");
}

TEST(WireFrontend, MalformedOptRecordsGetFormerr) {
  Fixture f;
  const auto expect_formerr = [&](const Bytes& q, const char* what) {
    const Bytes response = f.cached.serve(q);
    ASSERT_GE(response.size(), 12u) << what;
    EXPECT_EQ(response[3] & 0x0F, 1) << what;
  };
  const auto base = [&](std::uint16_t arcount) {
    Bytes q = raw_query_header(1, 0x0000, 1);
    q[10] = static_cast<std::uint8_t>(arcount >> 8);
    q[11] = static_cast<std::uint8_t>(arcount & 0xFF);
    append_question(q, f.apex.child("www"), RRType::kA);
    return q;
  };
  const auto append_opt = [](Bytes& q, Bytes rdata,
                             std::optional<std::uint16_t> rdlen_override =
                                 std::nullopt,
                             std::uint8_t owner = 0) {
    q.push_back(owner);  // root (or a bogus label length)
    if (owner != 0) q.resize(q.size() + owner + 1, 'x');
    q.push_back(0);
    q.push_back(41);  // OPT
    q.push_back(0x10);
    q.push_back(0x00);  // udp_size 4096
    q.resize(q.size() + 4, 0);  // TTL
    const std::uint16_t rdlen =
        rdlen_override.value_or(static_cast<std::uint16_t>(rdata.size()));
    q.push_back(static_cast<std::uint8_t>(rdlen >> 8));
    q.push_back(static_cast<std::uint8_t>(rdlen & 0xFF));
    q.insert(q.end(), rdata.begin(), rdata.end());
  };

  Bytes non_root = base(1);
  append_opt(non_root, {}, std::nullopt, /*owner=*/3);
  expect_formerr(non_root, "OPT owner not root");

  Bytes dup = base(2);
  append_opt(dup, {});
  append_opt(dup, {});
  expect_formerr(dup, "duplicate OPT");

  Bytes overlong_rdlen = base(1);
  append_opt(overlong_rdlen, {}, /*rdlen_override=*/9999);
  expect_formerr(overlong_rdlen, "RDLEN beyond packet");

  // Option TLV header promising more payload than RDATA holds.
  Bytes bad_tlv = base(1);
  append_opt(bad_tlv, Bytes{0x00, 0x0A, 0x00, 0x40});  // len 64, have 0
  expect_formerr(bad_tlv, "truncated option TLV");

  // RDATA larger than the kMaxEdnsOptionBytes acceptance ceiling.
  Bytes huge = base(1);
  Bytes huge_rdata(kMaxEdnsOptionBytes + 2, 0);
  huge_rdata[0] = 0x00;
  huge_rdata[1] = 0x0A;
  huge_rdata[2] = static_cast<std::uint8_t>((kMaxEdnsOptionBytes - 2) >> 8);
  huge_rdata[3] = static_cast<std::uint8_t>((kMaxEdnsOptionBytes - 2) & 0xFF);
  append_opt(huge, huge_rdata);
  expect_formerr(huge, "oversized OPT RDATA");
}

TEST(WireFrontend, UnsupportedEdnsVersionGetsBadvers) {
  Fixture f;
  Bytes q = raw_query_header(9, 0x0000, 1);
  q[11] = 1;  // arcount
  append_question(q, f.apex.child("www"), RRType::kA);
  q.push_back(0);   // root owner
  q.push_back(0);
  q.push_back(41);  // OPT
  q.push_back(0x10);
  q.push_back(0x00);
  q.push_back(0);  // ext_rcode
  q.push_back(1);  // version 1
  q.push_back(0);
  q.push_back(0);
  q.push_back(0);
  q.push_back(0);  // rdlen
  const Bytes response = f.cached.serve(q);
  const auto msg = dns::decode_message(response);
  ASSERT_TRUE(msg.has_value());
  ASSERT_TRUE(msg->edns.has_value());
  EXPECT_EQ(msg->edns->ext_rcode, 1);  // BADVERS = 16: ext 1, low bits 0
  EXPECT_EQ(msg->header.rcode, dns::RCode::kNoError);
  EXPECT_EQ(msg->edns->version, 0);  // we answer with the version we speak
  EXPECT_TRUE(msg->answers.empty());
}

// ---------------------------------------------------------------------------
// Cache bit-identity and aggressive synthesis

TEST(AnswerCacheTest, CachedAnswersAreBitIdenticalToUncached) {
  for (const auto denial :
       {zone::DenialMode::kNsec, zone::DenialMode::kNsec3}) {
    Fixture f(denial);
    std::vector<Bytes> queries;
    for (const bool do_bit : {true, false}) {
      queries.push_back(f.query_bytes(f.apex.child("www"), RRType::kA, do_bit));
      queries.push_back(
          f.query_bytes(f.apex.child("alias"), RRType::kA, do_bit));
      queries.push_back(f.query_bytes(f.apex, RRType::kSOA, do_bit));
      queries.push_back(f.query_bytes(f.apex, RRType::kDS, do_bit));
      queries.push_back(f.query_bytes(f.apex.child("www"), RRType::kMX, do_bit));
      queries.push_back(f.query_bytes(f.apex.child("ent"), RRType::kA, do_bit));
      queries.push_back(f.query_bytes(
          f.apex.child("wild").child("anything"), RRType::kA, do_bit));
      queries.push_back(f.query_bytes(
          f.apex.child("sub").child("x"), RRType::kA, do_bit));
      queries.push_back(f.query_bytes(f.apex.child("sub"), RRType::kDS, do_bit));
      queries.push_back(
          f.query_bytes(f.apex.child("missing"), RRType::kA, do_bit));
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (const Bytes& q : queries) {
        EXPECT_EQ(f.uncached.serve(q), f.cached.serve(q))
            << "pass " << pass << " denial "
            << (denial == zone::DenialMode::kNsec ? "nsec" : "nsec3");
      }
    }
  }
}

TEST(AnswerCacheTest, AggressiveSynthesisMatchesZoneWalk) {
  for (const auto denial :
       {zone::DenialMode::kNsec, zone::DenialMode::kNsec3}) {
    Fixture f(denial);
    // Seed the proof harvest with one NXDOMAIN and one NODATA.
    f.cached.serve(f.query_bytes(f.apex.child("seed-nx"), RRType::kA));
    f.cached.serve(f.query_bytes(f.apex.child("www"), RRType::kMX));
    const std::int64_t synth_before = counter("server.cache.synth_hits");
    int synthesized = 0;
    for (int i = 0; i < 24; ++i) {
      const Name probe = f.apex.child("probe" + std::to_string(i));
      const Bytes q = f.query_bytes(probe, RRType::kA);
      EXPECT_EQ(f.uncached.serve(q), f.cached.serve(q)) << probe.to_string();
    }
    // NODATA synthesis at a name whose NSEC/NSEC3 match was harvested.
    const Bytes nodata = f.query_bytes(f.apex.child("www"), RRType::kTXT);
    EXPECT_EQ(f.uncached.serve(nodata), f.cached.serve(nodata));
    synthesized += static_cast<int>(counter("server.cache.synth_hits") -
                                    synth_before);
    EXPECT_GT(synthesized, 0)
        << "probe set never hit the aggressive path ("
        << (denial == zone::DenialMode::kNsec ? "nsec" : "nsec3") << ")";
  }
}

TEST(AnswerCacheTest, SynthesisRefusesPositiveAndDelegationNames) {
  Fixture f;
  // Harvest proofs around the zone.
  f.cached.serve(f.query_bytes(f.apex.child("seed-nx"), RRType::kA));
  f.cached.serve(f.query_bytes(f.apex.child("www"), RRType::kMX));
  // Names that must NOT be answered aggressively: an existing name, a name
  // under the delegation cut, a wildcard-covered name.
  for (const Bytes& q : {
           f.query_bytes(f.apex.child("alias"), RRType::kA),
           f.query_bytes(f.apex.child("sub").child("below"), RRType::kA),
           f.query_bytes(f.apex.child("wild").child("x"), RRType::kA),
       }) {
    EXPECT_EQ(f.uncached.serve(q), f.cached.serve(q));
  }
}

TEST(AnswerCacheTest, ZoneReloadInvalidatesCachedAnswers) {
  Fixture f;
  const Bytes query = f.query_bytes(f.apex.child("www"), RRType::kA);
  const Bytes before = f.cached.serve(query);
  ASSERT_EQ(before, f.cached.serve(query));  // now cached

  // Reload the zone with a different www address: the swap must invalidate
  // both the packet tier and the harvested proofs.
  const std::uint64_t epoch_before = f.cache.epoch();
  f.store.upsert(
      build_child_zone(f.apex, zone::DenialMode::kNsec, f.keys, f.rng,
                       /*www_address=*/{203, 0, 113, 99}));
  EXPECT_GT(f.cache.epoch(), epoch_before);

  const Bytes after = f.cached.serve(query);
  EXPECT_NE(before, after);
  // Digest-compare: the post-reload cached answer equals the uncached walk.
  EXPECT_EQ(f.uncached.serve(query), after);
  const auto msg = dns::decode_message(after);
  ASSERT_TRUE(msg.has_value());
  bool saw_new_address = false;
  for (const auto& rr : msg->answers) {
    if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata)) {
      saw_new_address |= a->address == std::array<std::uint8_t, 4>{
                                           203, 0, 113, 99};
    }
  }
  EXPECT_TRUE(saw_new_address);
}

TEST(AnswerCacheTest, StaleEpochInsertsAreDropped) {
  AnswerCache cache;
  AnswerBody body;
  body.rcode = dns::RCode::kNoError;
  const std::uint64_t old_epoch = cache.epoch();
  cache.invalidate_all();
  cache.insert("key", body, old_epoch);  // producer raced a reload
  EXPECT_FALSE(cache.lookup("key"));
  cache.insert("key", body, cache.epoch());
  EXPECT_TRUE(cache.lookup("key"));
}

TEST(AnswerCacheTest, HitHeldAcrossInsertAndEvictionOfItsKeyReadsItsBody) {
  // One entry per shard: the writer first replaces the held key's entry,
  // then inserts keys until one lands in the same shard and evicts it.
  AnswerCache cache(/*max_entries_per_shard=*/1);
  const std::uint64_t epoch = cache.epoch();
  AnswerBody first;
  first.ancount = 1;
  first.bytes = Bytes(64, 0xAB);
  cache.insert("held", first, epoch);
  std::atomic<bool> writer_started{false};
  std::atomic<bool> writer_done{false};
  std::thread writer;
  {
    const auto hit = cache.lookup("held");
    ASSERT_TRUE(hit);
    writer = std::thread([&] {
      writer_started.store(true);
      AnswerBody second = first;
      second.bytes = Bytes(64, 0xCD);
      cache.insert("held", second, epoch);
      for (int i = 0; i < 256; ++i) {
        cache.insert("other" + std::to_string(i), second, epoch);
      }
      writer_done.store(true);
    });
    while (!writer_started.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // The writer waits for the read side this Hit holds, so the body is
    // still the one looked up, intact.
    EXPECT_FALSE(writer_done.load());
    EXPECT_EQ(*hit, first);
  }
  writer.join();
  EXPECT_TRUE(writer_done.load());
  EXPECT_LE(cache.size(), AnswerCache::kShards);
  // 256 keys over 32 shards of one entry each: some later key shares the
  // held key's shard and evicted it.
  EXPECT_FALSE(cache.lookup("held"));
}

TEST(AnswerCacheTest, EvictsWhenShardIsFull) {
  AnswerCache cache(/*max_entries_per_shard=*/2);
  AnswerBody body;
  const std::uint64_t epoch = cache.epoch();
  for (int i = 0; i < 256; ++i) {
    cache.insert(AnswerCache::key_of(Name::of("n" + std::to_string(i) +
                                              ".example."),
                                     RRType::kA, true),
                 body, epoch);
  }
  EXPECT_LE(cache.size(), 2u * 32u);  // bounded by shards * cap
}

TEST(AnswerCacheTest, EvictionUnderSnapshotSwapIsRaceFree) {
  // One entry per shard forces an eviction on nearly every insert while a
  // writer keeps swapping snapshots, bumping the epoch through the
  // connect_invalidation hook. Lookups, inserts, evictions and epoch bumps
  // all race below — TSan builds get real coverage of the shard mutexes
  // against the epoch counter; release builds still assert the settled
  // cache agrees with the uncached walk.
  Fixture f;
  AnswerCache small(/*max_entries_per_shard=*/1);
  connect_invalidation(f.store, small);
  WireFrontend frontend{f.store, &small};
  std::vector<Bytes> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(
        f.query_bytes(f.apex.child("n" + std::to_string(i)), RRType::kA));
  }
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  // The writer keeps swapping until every reader has served at least once,
  // so the race below happens however the threads are scheduled.
  std::latch every_reader_served(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::size_t k = static_cast<std::size_t>(t);
      bool counted = false;
      while (!stop.load(std::memory_order_acquire)) {
        const Bytes response = frontend.serve(queries[k % queries.size()]);
        if (!counted) {
          every_reader_served.count_down();
          counted = true;
        }
        ASSERT_GE(response.size(), 12u);
        served.fetch_add(1, std::memory_order_relaxed);
        ++k;
      }
    });
  }
  for (int i = 0; i < 25 || !every_reader_served.try_wait(); ++i) {
    f.store.upsert(
        build_child_zone(f.apex, zone::DenialMode::kNsec, f.keys, f.rng,
                         {192, 0, 2, static_cast<std::uint8_t>(i + 1)}));
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(served.load(), 0);
  // Settled state: serve twice so the second answer is the cached one, and
  // digest-compare against the cache-off walk.
  for (const Bytes& q : {queries[0], queries[1]}) {
    (void)frontend.serve(q);
    EXPECT_EQ(f.uncached.serve(q), frontend.serve(q));
  }
}

/// The next version of a signed zone with the same denial chain: SOA
/// serial bumped and the SOA's RRSIGs made again (one second later).
zone::Zone resign_soa(const zone::Zone& signed_zone,
                      const zone::KeyStore& keys) {
  const Name& apex = signed_zone.apex();
  zone::Zone next = signed_zone;
  next.bump_serial();
  const dns::RRset* old_sigs = next.find(apex, RRType::kRRSIG);
  dns::RRset sigs(apex, RRType::kRRSIG, old_sigs->ttl());
  for (const auto& rdata : old_sigs->rdatas()) {
    if (std::get<dns::RrsigRdata>(rdata).type_covered != RRType::kSOA) {
      sigs.add(rdata);
    }
  }
  const dns::RRset* soa = next.find(apex, RRType::kSOA);
  for (const auto* key : keys.active_with_role(kNow, zone::KeyRole::kZsk)) {
    sigs.add(zone::make_rrsig(*soa, *key, apex, kNow + 1, kNow + 30 * kDay));
  }
  next.put(std::move(sigs));
  return next;
}

TEST(AnswerCacheTest, NegativeTierUnderRepublishesAnswersAsOneVersion) {
  // An NSEC and an NSEC3 zone, each in two versions that share one chain.
  // Readers race synthesis and harvest against each other and against a
  // writer that alternates the versions (every upsert moves the epoch);
  // each response must be the cache-off response of one of the versions.
  Rng rng{77};
  struct Hosted {
    Name apex;
    zone::Zone a;
    zone::Zone b;
  };
  std::vector<Hosted> zones;
  for (const auto& [apex, denial] :
       {std::pair{Name::of("example.test."), zone::DenialMode::kNsec},
        std::pair{Name::of("n3.test."), zone::DenialMode::kNsec3}}) {
    zone::KeyStore keys(apex);
    zone::Zone a = build_child_zone(apex, denial, keys, rng);
    zone::Zone b = resign_soa(a, keys);
    ASSERT_TRUE(b.same_chain(a));
    zones.push_back({apex, std::move(a), std::move(b)});
  }
  ZoneStore version_a, version_b, store;
  AnswerCache cache;
  connect_invalidation(store, cache);
  for (const Hosted& z : zones) {
    ASSERT_TRUE(version_a.upsert(z.a));
    ASSERT_TRUE(version_b.upsert(z.b));
    ASSERT_TRUE(store.upsert(z.a));
  }
  const WireFrontend uncached_a{version_a, nullptr};
  const WireFrontend uncached_b{version_b, nullptr};
  const WireFrontend cached{store, &cache};

  // Per zone: two harvest seeds (an NXDOMAIN and a NODATA), probes the
  // packet tier has never seen, NODATA at existing names and at an empty
  // non-terminal, and NXDOMAINs.
  std::vector<Bytes> seeds, probes, queries;
  for (const Hosted& z : zones) {
    seeds.push_back(encode_query(z.apex.child("seed-nx"), RRType::kA));
    seeds.push_back(encode_query(z.apex.child("www"), RRType::kMX));
    for (int i = 0; i < 16; ++i) {
      probes.push_back(
          encode_query(z.apex.child("probe" + std::to_string(i)), RRType::kA));
    }
    for (const RRType qtype : {RRType::kTXT, RRType::kAAAA}) {
      queries.push_back(encode_query(z.apex.child("www"), qtype));
      queries.push_back(encode_query(z.apex.child("ns1"), qtype));
    }
    queries.push_back(encode_query(z.apex.child("ent"), RRType::kA));
    for (int i = 0; i < 24; ++i) {
      queries.push_back(
          encode_query(z.apex.child("nx" + std::to_string(i)), RRType::kA));
    }
  }

  // Warm, one thread, zone by zone: the seeds harvest, and the probes the
  // harvested intervals cover are synthesized.
  const std::size_t per_zone = probes.size() / zones.size();
  for (std::size_t z = 0; z < zones.size(); ++z) {
    const std::int64_t synth_before = counter("server.cache.synth_hits");
    for (std::size_t i = 2 * z; i < 2 * z + 2; ++i) {
      ASSERT_EQ(cached.serve(seeds[i]), uncached_a.serve(seeds[i]));
    }
    for (std::size_t i = z * per_zone; i < (z + 1) * per_zone; ++i) {
      ASSERT_EQ(cached.serve(probes[i]), uncached_a.serve(probes[i]));
    }
    EXPECT_GT(counter("server.cache.synth_hits") - synth_before, 0)
        << zones[z].apex.to_string();
  }

  for (const auto* set : {&seeds, &probes}) {
    queries.insert(queries.end(), set->begin(), set->end());
  }
  std::vector<Bytes> want_a, want_b;
  for (const Bytes& q : queries) {
    want_a.push_back(uncached_a.serve(q));
    want_b.push_back(uncached_b.serve(q));
  }
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::latch every_reader_served(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::size_t at = static_cast<std::size_t>(t) * queries.size() / kReaders;
      std::size_t served = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const Bytes response = cached.serve(queries[at]);
        if (response != want_a[at] && response != want_b[at]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        at = (at + 1) % queries.size();
        if (++served == queries.size()) every_reader_served.count_down();
      }
    });
  }
  // Each reader finishes at least one pass over every query while the
  // versions alternate; the writer ends on version A.
  for (int i = 0; i < 200 || !every_reader_served.try_wait() || i % 2 != 0;
       ++i) {
    for (const Hosted& z : zones) {
      EXPECT_TRUE(store.upsert(i % 2 == 0 ? z.b : z.a));
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Settled on version A: the first serve fills the cache, the second
  // reads it; both are version A's bytes.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(cached.serve(queries[i]), want_a[i]) << i;
    EXPECT_EQ(cached.serve(queries[i]), want_a[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// ZoneStore semantics

TEST(ZoneStoreTest, FindPicksDeepestEnclosingZone) {
  Fixture f;
  const auto view = f.store.find(f.apex.child("www"), RRType::kA);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->zone.apex(), f.apex);
  const auto parent_view = f.store.find(Name::of("other.test."), RRType::kA);
  ASSERT_NE(parent_view, nullptr);
  EXPECT_EQ(parent_view->zone.apex(), f.parent_apex);
  EXPECT_EQ(f.store.find(Name::of("unrelated.example."), RRType::kA),
            nullptr);
}

TEST(ZoneStoreTest, ApexDsRedirectsToParentOnlyWhenParentHosted) {
  Fixture f;
  const auto ds_view = f.store.find(f.apex, RRType::kDS);
  ASSERT_NE(ds_view, nullptr);
  EXPECT_EQ(ds_view->zone.apex(), f.parent_apex);
  // Any other apex qtype stays with the child zone.
  const auto soa_view = f.store.find(f.apex, RRType::kSOA);
  ASSERT_NE(soa_view, nullptr);
  EXPECT_EQ(soa_view->zone.apex(), f.apex);
  // DS at the parent's own apex: no grandparent hosted, stays put.
  const auto top_view = f.store.find(f.parent_apex, RRType::kDS);
  ASSERT_NE(top_view, nullptr);
  EXPECT_EQ(top_view->zone.apex(), f.parent_apex);
}

TEST(ZoneStoreTest, RemoveDropsZoneAndBumpsGeneration) {
  Fixture f;
  const std::uint64_t gen = f.store.generation();
  EXPECT_FALSE(f.store.remove(Name::of("never-hosted.example.")));
  EXPECT_EQ(f.store.generation(), gen);
  EXPECT_TRUE(f.store.remove(f.apex));
  EXPECT_GT(f.store.generation(), gen);
  // Queries below the removed apex now fall to the hosted parent.
  const auto view = f.store.find(f.apex.child("www"), RRType::kA);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->zone.apex(), f.parent_apex);
  const auto msg = f.serve_decoded(
      f.query_bytes(f.apex.child("www"), RRType::kA));
  EXPECT_FALSE(msg.header.aa);  // delegation from the parent, not REFUSED
}

TEST(ZoneStoreTest, SubscribersSeeEveryCommit) {
  ZoneStore store;
  std::vector<std::uint64_t> seen;
  store.subscribe([&](std::uint64_t generation) { seen.push_back(generation); });
  zone::KeyStore keys{Name::of("a.example.")};
  Rng rng{7};
  store.upsert(build_child_zone(Name::of("a.example."),
                                zone::DenialMode::kNsec, keys, rng));
  store.remove(Name::of("a.example."));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_LT(seen[0], seen[1]);
  EXPECT_EQ(seen[1], store.generation());
}

TEST(ZoneStoreTest, ReupsertLeavesOtherZonesVersionsUnchanged) {
  const std::vector<Name> apexes = {Name::of("a.example."),
                                    Name::of("b.example."),
                                    Name::of("c.b.example.")};
  std::vector<zone::KeyStore> keys(apexes.begin(), apexes.end());
  Rng rng{11};
  ZoneStore store;
  for (std::size_t i = 0; i < apexes.size(); ++i) {
    ASSERT_TRUE(store.upsert(build_child_zone(
        apexes[i], i == 1 ? zone::DenialMode::kNsec3 : zone::DenialMode::kNsec,
        keys[i], rng)));
  }
  std::vector<std::shared_ptr<const HostedZone>> before;
  for (const Name& apex : apexes) {
    auto hosted = store.find(apex.child("www"), RRType::kA);
    ASSERT_NE(hosted, nullptr);
    ASSERT_EQ(hosted->zone.apex(), apex);
    before.push_back(std::move(hosted));
  }

  ASSERT_TRUE(store.upsert(build_child_zone(
      apexes[0], zone::DenialMode::kNsec, keys[0], rng, {192, 0, 2, 99})));
  EXPECT_EQ(store.zone_count(), apexes.size());
  // The re-upserted zone is a new version; every other zone is the very
  // same compiled HostedZone.
  EXPECT_NE(store.find(apexes[0].child("www"), RRType::kA), before[0]);
  for (std::size_t i = 1; i < apexes.size(); ++i) {
    EXPECT_EQ(store.find(apexes[i].child("www"), RRType::kA), before[i])
        << apexes[i].to_string();
  }
}

TEST(ZoneStoreTest, ViewCapturedBeforeReupsertAnswersFromOldVersion) {
  Fixture f;
  const Name www = f.apex.child("www");
  const Name missing = f.apex.child("missing");
  const auto old_view = f.store.find(www, RRType::kA);
  ASSERT_NE(old_view, nullptr);
  const auto old_positive = f.store.query(www, RRType::kA);
  const auto old_negative = f.store.query(missing, RRType::kA);
  ASSERT_TRUE(old_positive.has_value() && old_negative.has_value());

  ASSERT_TRUE(f.store.upsert(build_child_zone(
      f.apex, zone::DenialMode::kNsec3, f.keys, f.rng, {192, 0, 2, 77})));
  const auto new_positive = f.store.query(www, RRType::kA);
  ASSERT_TRUE(new_positive.has_value());
  ASSERT_NE(section_text(new_positive->second.answers),
            section_text(old_positive->second.answers));

  const auto positive =
      authserver::answer(old_view->zone, *old_view->denial, www, RRType::kA);
  EXPECT_EQ(section_text(positive.answers),
            section_text(old_positive->second.answers));
  const auto negative = authserver::answer(old_view->zone, *old_view->denial,
                                           missing, RRType::kA);
  EXPECT_EQ(negative.rcode, dns::RCode::kNXDomain);
  EXPECT_EQ(section_text(negative.authorities),
            section_text(old_negative->second.authorities));
}

TEST(ZoneStoreTest, SnapshotSwapUnderConcurrentReaders) {
  Fixture f;
  const Bytes query = f.query_bytes(f.apex.child("www"), RRType::kA);
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  // The writer keeps swapping until every reader has served at least once.
  std::latch every_reader_served(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool counted = false;
      while (!stop.load(std::memory_order_acquire)) {
        const Bytes response = f.cached.serve(query);
        if (!counted) {
          every_reader_served.count_down();
          counted = true;
        }
        ASSERT_GE(response.size(), 12u);
        // Readers must always see a complete zone: NoError from either the
        // old or the new snapshot, never a half-built one.
        ASSERT_EQ(response[3] & 0x0F, 0);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Writer: keep swapping the zone while the readers hammer it.
  for (int i = 0; i < 50 || !every_reader_served.try_wait(); ++i) {
    f.store.upsert(build_child_zone(
        f.apex, zone::DenialMode::kNsec, f.keys, f.rng,
        {192, 0, 2, static_cast<std::uint8_t>(i + 1)}));
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(served.load(), 0);
  // Settled state: cached equals uncached for the final zone contents.
  EXPECT_EQ(f.uncached.serve(query), f.cached.serve(query));
}

// ---------------------------------------------------------------------------
// QueryResult::to_message round-trip

TEST(QueryResultToMessage, RoundTripsThroughWireCodec) {
  Fixture f;
  for (const auto& [qname, qtype] :
       std::vector<std::pair<Name, RRType>>{
           {f.apex.child("www"), RRType::kA},
           {f.apex.child("missing"), RRType::kA},
           {f.apex.child("www"), RRType::kMX},
           {f.apex.child("sub").child("x"), RRType::kA},
       }) {
    const auto view = f.store.find(qname, qtype);
    ASSERT_NE(view, nullptr);
    const auto result =
        authserver::answer(view->zone, *view->denial, qname, qtype);
    const dns::Question question{qname, qtype, dns::RRClass::kIN};
    const dns::Message msg = result.to_message(question, 0xABCD);
    EXPECT_EQ(msg.header.id, 0xABCD);
    EXPECT_TRUE(msg.header.qr);
    EXPECT_EQ(msg.header.aa, result.authoritative);
    EXPECT_EQ(msg.header.rcode, result.rcode);
    ASSERT_EQ(msg.questions.size(), 1u);

    const Bytes wire = dns::encode_message(msg);
    const auto decoded = dns::decode_message(wire);
    ASSERT_TRUE(decoded.has_value()) << qname.to_string();
    EXPECT_EQ(section_text(decoded->answers), section_text(result.answers));
    EXPECT_EQ(section_text(decoded->authorities),
              section_text(result.authorities));
    EXPECT_EQ(section_text(decoded->additionals),
              section_text(result.additionals));
    // Re-encoding the decoded message must reproduce the wire exactly
    // (compression is deterministic).
    EXPECT_EQ(dns::encode_message(*decoded), wire);
  }
}

}  // namespace
}  // namespace dfx::server
