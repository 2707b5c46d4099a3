// Deterministic fuzz tests: every parser must be total — on arbitrary
// bytes it either fails cleanly or returns a value that survives a
// re-encode round-trip. No crashes, no exceptions, no hangs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "bignum_reference.h"
#include "crypto/algorithm.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "dnscore/masterfile.h"
#include "dnscore/message.h"
#include "dnscore/wire.h"
#include "json/json.h"
#include "server/frontend.h"
#include "util/codec.h"
#include "util/rng.h"
#include "zone/signer.h"

namespace dfx {
namespace {

Bytes random_buffer(Rng& rng, std::size_t max_size) {
  Bytes out(rng.uniform(max_size + 1));
  rng.fill(out);
  return out;
}

/// Flip a few bytes of a valid input.
Bytes mutate(Rng& rng, Bytes input) {
  if (input.empty()) return input;
  const int flips = 1 + static_cast<int>(rng.uniform(4));
  for (int i = 0; i < flips; ++i) {
    input[rng.uniform(input.size())] ^=
        static_cast<std::uint8_t>(1 + rng.uniform(255));
  }
  return input;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, RdataDecoderIsTotal) {
  Rng rng(GetParam());
  const dns::RRType types[] = {
      dns::RRType::kA,      dns::RRType::kAAAA,  dns::RRType::kNS,
      dns::RRType::kSOA,    dns::RRType::kMX,    dns::RRType::kTXT,
      dns::RRType::kDNSKEY, dns::RRType::kDS,    dns::RRType::kRRSIG,
      dns::RRType::kNSEC,   dns::RRType::kNSEC3, dns::RRType::kNSEC3PARAM,
      dns::RRType::kCDS,    dns::RRType::kCDNSKEY};
  for (int i = 0; i < 400; ++i) {
    const Bytes buffer = random_buffer(rng, 64);
    for (const auto type : types) {
      const auto decoded = dns::rdata_from_wire(type, buffer);
      if (decoded) {
        // Whatever decodes must re-encode to something decodable again.
        const Bytes wire = dns::rdata_to_wire(*decoded);
        EXPECT_TRUE(dns::rdata_from_wire(type, wire).has_value())
            << dns::rrtype_to_string(type);
      }
    }
  }
}

TEST_P(FuzzSeeds, MessageDecoderIsTotal) {
  Rng rng(GetParam() + 1);
  // Pure random buffers.
  for (int i = 0; i < 300; ++i) {
    const Bytes buffer = random_buffer(rng, 200);
    (void)dns::decode_message(buffer);  // must not crash
  }
  // Mutations of a valid message.
  dns::Message msg;
  msg.questions.push_back(
      {dns::Name::of("www.example.com."), dns::RRType::kA,
       dns::RRClass::kIN});
  dns::ARdata a;
  a.address = {1, 2, 3, 4};
  msg.answers.push_back({dns::Name::of("www.example.com."), dns::RRType::kA,
                         dns::RRClass::kIN, 300, dns::Rdata(a)});
  const Bytes valid = dns::encode_message(msg);
  for (int i = 0; i < 300; ++i) {
    const auto decoded = dns::decode_message(mutate(rng, valid));
    if (decoded) {
      (void)dns::encode_message(*decoded);  // round-trip must not crash
    }
  }
}

/// Hand-built wire messages that target the hard corners of wire.cpp name
/// decompression and record decoding: pointer loops, pointers past the end,
/// truncated headers and rdata, oversized labels, count/body mismatches, and
/// the Z bit and OPT-record rules.
/// Every entry must decode (or fail) without crashing or hanging — the
/// DFX_BOUNDED_LOOP guards in read_name keep the pointer cases finite.
std::vector<Bytes> wire_corpus() {
  std::vector<Bytes> corpus;
  const auto header = [](std::uint16_t qd, std::uint16_t an) {
    return Bytes{0x12, 0x34, 0x01, 0x00,
                 static_cast<std::uint8_t>(qd >> 8),
                 static_cast<std::uint8_t>(qd & 0xff),
                 static_cast<std::uint8_t>(an >> 8),
                 static_cast<std::uint8_t>(an & 0xff),
                 0x00, 0x00, 0x00, 0x00};
  };
  const auto append = [](Bytes base, std::initializer_list<int> tail) {
    for (const int b : tail) base.push_back(static_cast<std::uint8_t>(b));
    return base;
  };

  // Empty and truncated-header buffers.
  corpus.push_back({});
  corpus.push_back({0x12});
  corpus.push_back(Bytes(11, 0x00));

  // Question whose name is a compression pointer to itself (offset 12).
  corpus.push_back(append(header(1, 0), {0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01}));
  // Two pointers forming a cycle: offset 12 -> 14 -> 12.
  corpus.push_back(append(header(1, 0),
                          {0xc0, 0x0e, 0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01}));
  // Pointer past the end of the buffer.
  corpus.push_back(append(header(1, 0), {0xc0, 0xff, 0x00, 0x01, 0x00, 0x01}));
  // Label claiming 63 octets with only 2 present.
  corpus.push_back(append(header(1, 0), {0x3f, 'a', 'b'}));
  // Reserved label type bits (0x80): must be rejected, not misparsed.
  corpus.push_back(append(header(1, 0), {0x80, 'a', 0x00,
                                         0x00, 0x01, 0x00, 0x01}));
  // Header advertises one answer but the body ends after the question.
  corpus.push_back(append(header(1, 1), {0x01, 'a', 0x00,
                                         0x00, 0x01, 0x00, 0x01}));
  // Answer rdlength larger than the remaining bytes.
  corpus.push_back(append(header(0, 1), {0x01, 'a', 0x00,
                                         0x00, 0x01, 0x00, 0x01,
                                         0x00, 0x00, 0x00, 0x3c,
                                         0x00, 0x10, 0x01, 0x02}));
  // A record with rdlength 3 (address must be exactly 4).
  corpus.push_back(append(header(0, 1), {0x01, 'a', 0x00,
                                         0x00, 0x01, 0x00, 0x01,
                                         0x00, 0x00, 0x00, 0x3c,
                                         0x00, 0x03, 0x01, 0x02, 0x03}));
  // Name built from a long chain of 1-octet labels: exceeds the 253-octet
  // presentation cap and must fail cleanly instead of accumulating forever.
  {
    Bytes b = header(1, 0);
    for (int i = 0; i < 200; ++i) {
      b.push_back(0x01);
      b.push_back('x');
    }
    b.push_back(0x00);
    corpus.push_back(append(std::move(b), {0x00, 0x01, 0x00, 0x01}));
  }
  // Ladder of forward pointers that ends in a loop back to the start.
  {
    Bytes b = header(1, 0);
    for (int i = 0; i < 40; ++i) {
      const std::size_t target = 12 + 2 * (i + 1);
      b.push_back(static_cast<std::uint8_t>(0xc0 | (target >> 8)));
      b.push_back(static_cast<std::uint8_t>(target & 0xff));
    }
    b.push_back(0xc0);
    b.push_back(0x0c);
    corpus.push_back(std::move(b));
  }
  // Z bit set on an otherwise valid query: decode drops it, so re-encoding
  // clears it.
  {
    Bytes b = append(header(1, 0), {0x01, 'a', 0x00, 0x00, 0x01, 0x00, 0x01});
    b[3] |= 0x40;
    corpus.push_back(std::move(b));
  }
  // An OPT pseudo-record (RFC 6891) with wire owner `owner` and RDATA
  // `rdata`; `ar1` is a header with ARCOUNT 1 and no other records.
  const auto opt = [](std::initializer_list<int> owner,
                      std::initializer_list<int> rdata) {
    Bytes b;
    for (const int o : owner) b.push_back(static_cast<std::uint8_t>(o));
    b.push_back(0x00);  // TYPE 41
    b.push_back(static_cast<std::uint8_t>(dns::kOptType));
    b.push_back(0x04);  // CLASS: UDP payload size 1232
    b.push_back(0xd0);
    b.insert(b.end(), 4, 0x00);  // TTL: ext-rcode, version, flags
    b.push_back(0x00);
    b.push_back(static_cast<std::uint8_t>(rdata.size()));
    for (const int r : rdata) b.push_back(static_cast<std::uint8_t>(r));
    return b;
  };
  const Bytes ar1 = {0x12, 0x34, 0x01, 0x00, 0x00, 0x00,
                     0x00, 0x00, 0x00, 0x00, 0x00, 0x01};
  // OPT with a non-root owner "x." (RFC 6891 §6.1.2).
  {
    Bytes b = ar1;
    const Bytes rr = opt({0x01, 'x', 0x00}, {});
    b.insert(b.end(), rr.begin(), rr.end());
    corpus.push_back(std::move(b));
  }
  // Two OPT records (RFC 6891 §6.1.1 allows one).
  {
    Bytes b = ar1;
    b[11] = 0x02;
    for (int i = 0; i < 2; ++i) {
      const Bytes rr = opt({0x00}, {});
      b.insert(b.end(), rr.begin(), rr.end());
    }
    corpus.push_back(std::move(b));
  }
  // OPT whose option TLV is truncated: three octets, half a TLV header.
  {
    Bytes b = ar1;
    const Bytes rr = opt({0x00}, {0x00, 0x0a, 0x00});
    b.insert(b.end(), rr.begin(), rr.end());
    corpus.push_back(std::move(b));
  }
  return corpus;
}

/// Whatever decodes re-encodes to a fixed point: the first round trip may
/// canonicalize (embedded names lower-cased, the Z bit dropped, compressed
/// owners respelled), but a second one changes nothing —
/// encode(decode(encode(decode(x)))) == encode(decode(x)).
void expect_reencode_fixed_point(ByteView wire) {
  const auto decoded = dns::decode_message(wire);
  if (!decoded) return;
  const Bytes once = dns::encode_message(*decoded);
  const auto again = dns::decode_message(once);
  ASSERT_TRUE(again.has_value()) << hex_encode(wire);
  EXPECT_EQ(dns::encode_message(*again), once) << hex_encode(wire);
}

TEST(WireCorpus, AdversarialMessagesDecodeTotally) {
  for (const Bytes& buffer : wire_corpus()) {
    expect_reencode_fixed_point(buffer);
  }
}

TEST_P(FuzzSeeds, WireCorpusSurvivesMutation) {
  Rng rng(GetParam() + 5);
  const auto corpus = wire_corpus();
  for (int i = 0; i < 100; ++i) {
    for (const Bytes& entry : corpus) {
      expect_reencode_fixed_point(mutate(rng, entry));
    }
  }
}

TEST_P(FuzzSeeds, JsonParserIsTotal) {
  Rng rng(GetParam() + 2);
  for (int i = 0; i < 300; ++i) {
    const Bytes buffer = random_buffer(rng, 120);
    const std::string text(buffer.begin(), buffer.end());
    const auto result = json::parse(text);
    if (const auto* value = std::get_if<json::Value>(&result)) {
      // Valid parses must survive serialize → parse.
      const auto again = json::parse(json::serialize(*value));
      EXPECT_TRUE(std::holds_alternative<json::Value>(again));
    }
  }
  // Mutations of a valid document.
  const std::string valid =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":"d"},"e":-3})";
  for (int i = 0; i < 300; ++i) {
    Bytes buffer = to_bytes(valid);
    buffer = mutate(rng, std::move(buffer));
    (void)json::parse(std::string(buffer.begin(), buffer.end()));
  }
}

TEST_P(FuzzSeeds, MasterFileParserIsTotal) {
  Rng rng(GetParam() + 3);
  const dns::Name origin = dns::Name::of("fuzz.test.");
  const std::string valid =
      "@ IN SOA ns1 host 1 2 3 4 5\n"
      "@ IN NS ns1\n"
      "www 300 IN A 192.0.2.1\n"
      "@ IN DNSKEY 257 3 13 AQIDBA==\n"
      "@ IN NSEC3 1 0 5 aabb P1BCB9MA0VJQJ0AGIF5N8MIFKGDSAMAT A RRSIG\n";
  for (int i = 0; i < 200; ++i) {
    Bytes buffer = to_bytes(valid);
    buffer = mutate(rng, std::move(buffer));
    (void)dns::parse_master_file(
        std::string(buffer.begin(), buffer.end()), origin);
  }
  for (int i = 0; i < 200; ++i) {
    const Bytes buffer = random_buffer(rng, 200);
    (void)dns::parse_master_file(
        std::string(buffer.begin(), buffer.end()), origin);
  }
}

TEST_P(FuzzSeeds, CodecsAreTotal) {
  Rng rng(GetParam() + 4);
  for (int i = 0; i < 500; ++i) {
    const Bytes buffer = random_buffer(rng, 80);
    const std::string text(buffer.begin(), buffer.end());
    (void)hex_decode(text);
    (void)base32hex_decode(text);
    (void)base64_decode(text);
    (void)dns::Name::parse(text);
  }
}

/// One serving stack shared by the serve() fuzz tests: building and signing
/// the zone dominates the cost, the queries are cheap.
class ServeFuzz {
 public:
  static const ServeFuzz& instance() {
    static const ServeFuzz fuzz;
    return fuzz;
  }

  /// serve() must be total: no crash, no hang, and any non-empty response
  /// is a well-formed reply (QR set, same ID).
  void drive(ByteView query) const {
    const Bytes response = frontend_->serve(query);
    if (response.empty()) return;  // dropped (short packet or QR set)
    ASSERT_GE(response.size(), 12u);
    EXPECT_NE(response[2] & 0x80, 0);  // QR
    if (query.size() >= 2) {
      EXPECT_EQ(response[0], query[0]);
      EXPECT_EQ(response[1], query[1]);
    }
  }

  Bytes valid_query() const {
    dns::Message msg;
    msg.header.id = 0x4242;
    msg.questions.push_back({apex_.child("www"), dns::RRType::kA,
                             dns::RRClass::kIN});
    dns::EdnsInfo edns;
    edns.udp_size = 1232;
    edns.do_bit = true;
    msg.edns = edns;
    return dns::encode_message(msg);
  }

 private:
  ServeFuzz() {
    zone::Zone unsigned_zone(apex_);
    dns::SoaRdata soa;
    soa.mname = apex_.child("ns1");
    soa.rname = apex_.child("host");
    unsigned_zone.add(apex_, dns::RRType::kSOA, 3600, soa);
    unsigned_zone.add(apex_, dns::RRType::kNS, 3600,
                      dns::NsRdata{apex_.child("ns1")});
    dns::ARdata a;
    a.address = {192, 0, 2, 1};
    unsigned_zone.add(apex_.child("ns1"), dns::RRType::kA, 3600, a);
    unsigned_zone.add(apex_.child("www"), dns::RRType::kA, 3600, a);
    zone::KeyStore keys{apex_};
    Rng rng{99};
    keys.generate(rng, zone::KeyRole::kKsk,
                  crypto::DnssecAlgorithm::kEcdsaP256Sha256, kDatasetStart);
    keys.generate(rng, zone::KeyRole::kZsk,
                  crypto::DnssecAlgorithm::kEcdsaP256Sha256, kDatasetStart);
    store_.upsert(zone::sign_zone(unsigned_zone, keys, zone::SigningConfig{},
                                  kDatasetStart));
    server::connect_invalidation(store_, cache_);
    frontend_.emplace(store_, &cache_);
  }

  dns::Name apex_ = dns::Name::of("fuzz.test.");
  server::ZoneStore store_;
  server::AnswerCache cache_;
  std::optional<server::WireFrontend> frontend_;
};

TEST_P(FuzzSeeds, WireFrontendServeIsTotal) {
  Rng rng(GetParam() + 6);
  const auto& fuzz = ServeFuzz::instance();
  // Pure random buffers.
  for (int i = 0; i < 300; ++i) {
    fuzz.drive(random_buffer(rng, 200));
  }
  // Mutations of a valid EDNS query.
  const Bytes valid = fuzz.valid_query();
  for (int i = 0; i < 300; ++i) {
    fuzz.drive(mutate(rng, valid));
  }
  // The decompression/record adversarial corpus, raw and mutated.
  for (const Bytes& entry : wire_corpus()) {
    fuzz.drive(entry);
    for (int i = 0; i < 20; ++i) {
      fuzz.drive(mutate(rng, entry));
    }
  }
}

/// Adversarial transport-level packets aimed at the frontend itself (the
/// wire_corpus above targets the codec): bad OPT records, unknown opcodes,
/// question-count lies. Every case must produce a clean error, never an
/// assert.
TEST(WireCorpus, AdversarialPacketsServeTotally) {
  const auto& fuzz = ServeFuzz::instance();
  const auto header = [](std::uint16_t flags, std::uint16_t qd,
                         std::uint16_t ar) {
    return Bytes{0x77, 0x88,
                 static_cast<std::uint8_t>(flags >> 8),
                 static_cast<std::uint8_t>(flags & 0xff),
                 static_cast<std::uint8_t>(qd >> 8),
                 static_cast<std::uint8_t>(qd & 0xff),
                 0x00, 0x00, 0x00, 0x00,
                 static_cast<std::uint8_t>(ar >> 8),
                 static_cast<std::uint8_t>(ar & 0xff)};
  };
  const auto append = [](Bytes base, std::initializer_list<int> tail) {
    for (const int b : tail) base.push_back(static_cast<std::uint8_t>(b));
    return base;
  };
  const std::initializer_list<int> question =  // www.fuzz.test. A IN
      {0x03, 'w', 'w', 'w', 0x04, 'f', 'u', 'z', 'z', 0x04, 't', 'e', 's',
       't', 0x00, 0x00, 0x01, 0x00, 0x01};

  std::vector<Bytes> corpus;
  // Unknown opcodes 1..15.
  for (int opcode = 1; opcode <= 15; ++opcode) {
    corpus.push_back(append(
        header(static_cast<std::uint16_t>(opcode << 11), 1, 0), question));
  }
  // Question-count lies: 0, 2, 65535 with one actual question.
  for (const int qd : {0, 2, 0xFFFF}) {
    corpus.push_back(
        append(header(0, static_cast<std::uint16_t>(qd), 0), question));
  }
  // OPT with a non-root owner name.
  corpus.push_back(append(append(header(0, 1, 1), question),
                          {0x01, 'x', 0x00, 0x00, 41, 0x10, 0x00,
                           0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
  // Two OPT records.
  corpus.push_back(append(append(header(0, 1, 2), question),
                          {0x00, 0x00, 41, 0x10, 0x00, 0, 0, 0, 0, 0x00, 0x00,
                           0x00, 0x00, 41, 0x10, 0x00, 0, 0, 0, 0, 0x00,
                           0x00}));
  // OPT RDLEN pointing past the end of the packet.
  corpus.push_back(append(append(header(0, 1, 1), question),
                          {0x00, 0x00, 41, 0x10, 0x00, 0, 0, 0, 0, 0xFF,
                           0xFF}));
  // OPT whose option TLV promises more payload than RDATA carries.
  corpus.push_back(append(append(header(0, 1, 1), question),
                          {0x00, 0x00, 41, 0x10, 0x00, 0, 0, 0, 0, 0x00, 0x04,
                           0x00, 0x0A, 0x00, 0x40}));
  // OPT RDATA bigger than the acceptance ceiling.
  {
    Bytes huge = append(header(0, 1, 1), question);
    const auto rdlen =
        static_cast<std::uint16_t>(server::kMaxEdnsOptionBytes + 2);
    huge = append(std::move(huge), {0x00, 0x00, 41, 0x10, 0x00, 0, 0, 0, 0,
                                    rdlen >> 8, rdlen & 0xFF});
    huge.resize(huge.size() + rdlen, 0x00);
    corpus.push_back(std::move(huge));
  }
  // EDNS versions 1..255.
  for (const int version : {1, 2, 0x7F, 0xFF}) {
    corpus.push_back(append(append(header(0, 1, 1), question),
                            {0x00, 0x00, 41, 0x10, 0x00, 0x00, version, 0x00,
                             0x00, 0x00, 0x00}));
  }
  // Trailing junk after a well-formed OPT.
  corpus.push_back(append(append(header(0, 1, 1), question),
                          {0x00, 0x00, 41, 0x10, 0x00, 0, 0, 0, 0, 0x00, 0x00,
                           0xDE, 0xAD}));

  for (const Bytes& packet : corpus) {
    fuzz.drive(packet);
  }

  // The error handling must not have poisoned the serving path: a valid
  // query still gets a well-formed NoError answer afterwards.
  fuzz.drive(fuzz.valid_query());
}

/// RSA verification over the reference `modexp` (bignum_reference.h): the
/// oracle for RsaVerifyIsTotalAndMatchesReference. Hashing and padding
/// restate crypto/algorithm.cpp and crypto/rsa.cpp.
[[nodiscard]] bool reference_rsa_verify(crypto::DnssecAlgorithm alg,
                                        ByteView public_key, ByteView message,
                                        ByteView signature) {
  crypto::RsaPublicKey pub;
  if (!crypto::RsaPublicKey::decode(public_key, pub)) return false;
  const std::size_t k = (pub.n.bit_length() + 7) / 8;
  if (signature.size() != k) return false;
  const auto s = crypto::BigNum::from_bytes(signature);
  if (s >= pub.n) return false;
  Bytes input = {static_cast<std::uint8_t>(alg)};
  append(input, message);
  const Bytes digest = crypto::Sha1::digest(input);
  if (digest.size() + 11 > k) return false;
  Bytes em(k, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[k - digest.size() - 1] = 0x00;
  std::copy(digest.begin(), digest.end(),
            em.end() - static_cast<std::ptrdiff_t>(digest.size()));
  return crypto::reference_modexp(s, pub.e, pub.n) ==
         crypto::BigNum::from_bytes(em);
}

/// RFC 3110 DNSKEY public-key bytes: exponent length, exponent, modulus.
Bytes rsa_key_bytes(ByteView exponent, ByteView modulus) {
  Bytes out = {static_cast<std::uint8_t>(exponent.size())};
  append(out, exponent);
  append(out, modulus);
  return out;
}

/// verify_message for the RSA algorithm numbers must be total over any
/// DNSKEY and signature bytes (even, 1-byte and 257..2048-bit moduli, an
/// exponent length past the end, signatures >= n or of the wrong length)
/// and agree with the reference path, as must modexp itself on each key.
TEST_P(FuzzSeeds, RsaVerifyIsTotalAndMatchesReference) {
  Rng rng(GetParam() + 7);
  const auto key =
      crypto::generate_key(rng, crypto::DnssecAlgorithm::kRsaSha256);
  const Bytes message = random_buffer(rng, 64);
  const Bytes good = crypto::sign_message(key, message);
  ASSERT_TRUE(crypto::verify_message(key.algorithm, key.public_key, message,
                                     good));
  const Bytes f4 = {0x01, 0x00, 0x01};  // e = 65537
  const auto modulus = [&](std::size_t bits, bool odd) {
    auto n = crypto::BigNum::random_bits(rng, bits);
    if (n.is_odd() != odd) n = n + crypto::BigNum(1);
    return n.to_bytes();
  };

  std::vector<Bytes> keys = {key.public_key};
  for (int i = 0; i < 20; ++i) keys.push_back(mutate(rng, key.public_key));
  for (int i = 0; i < 10; ++i) keys.push_back(random_buffer(rng, 80));
  for (int i = 0; i < 6; ++i) {
    keys.push_back(rsa_key_bytes(f4, modulus(8 + rng.uniform(2041), false)));
    keys.push_back(rsa_key_bytes(f4, modulus(257 + rng.uniform(1792), true)));
  }
  keys.push_back(rsa_key_bytes(f4, modulus(2048, true)));
  for (const std::uint8_t n : {0x01, 0x02, 0x03, 0x0F, 0x80, 0xFF}) {
    keys.push_back(rsa_key_bytes(f4, Bytes{n}));
  }
  // Exponent lengths that run past the end of the key bytes.
  keys.push_back(Bytes{0xFF, 0x01, 0x00, 0x01});
  Bytes overlong = key.public_key;
  overlong[0] = static_cast<std::uint8_t>(overlong.size());
  keys.push_back(overlong);
  overlong[0] = static_cast<std::uint8_t>(overlong.size() - 1);
  keys.push_back(overlong);

  const crypto::DnssecAlgorithm algorithms[] = {
      crypto::DnssecAlgorithm::kRsaSha1,
      crypto::DnssecAlgorithm::kRsaSha1Nsec3Sha1,
      crypto::DnssecAlgorithm::kRsaSha256, crypto::DnssecAlgorithm::kRsaSha512};
  for (const Bytes& public_key : keys) {
    crypto::RsaPublicKey pub;
    const bool decoded = crypto::RsaPublicKey::decode(public_key, pub);
    const std::size_t k = decoded ? (pub.n.bit_length() + 7) / 8 : 32;
    std::vector<Bytes> signatures = {good, mutate(rng, good), Bytes{},
                                     Bytes(k, 0xFF)};
    for (const std::size_t size : {k - 1, k, k, k + 1}) {
      Bytes sig(size);
      rng.fill(sig);
      signatures.push_back(sig);
    }
    if (decoded) {
      signatures.push_back(pub.n.to_bytes_padded(k));  // s == n
      const auto s = crypto::BigNum::random_below(rng, pub.n);
      EXPECT_EQ(crypto::BigNum::modexp(s, pub.e, pub.n),
                crypto::reference_modexp(s, pub.e, pub.n))
          << "n=" << pub.n.to_hex() << " e=" << pub.e.to_hex();
    }
    for (const auto alg : algorithms) {
      for (const Bytes& sig : signatures) {
        EXPECT_EQ(crypto::verify_message(alg, public_key, message, sig),
                  reference_rsa_verify(alg, public_key, message, sig))
            << "alg " << static_cast<int>(alg) << ", key bytes "
            << public_key.size() << ", signature bytes " << sig.size();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1000, 2000, 3000, 4000));

}  // namespace
}  // namespace dfx
