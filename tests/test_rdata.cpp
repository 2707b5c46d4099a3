// RDATA wire encoding, presentation text, and type-bitmap tests.
#include <gtest/gtest.h>

#include "dnscore/rdata.h"
#include "dnscore/rrset.h"
#include "dnscore/wire.h"
#include "util/codec.h"
#include "util/rng.h"
#include "util/simclock.h"

namespace dfx::dns {
namespace {

TEST(Rdata, TypeMapping) {
  EXPECT_EQ(rdata_type(Rdata(ARdata{})), RRType::kA);
  EXPECT_EQ(rdata_type(Rdata(SoaRdata{})), RRType::kSOA);
  EXPECT_EQ(rdata_type(Rdata(RrsigRdata{})), RRType::kRRSIG);
  EXPECT_EQ(rdata_type(Rdata(Nsec3Rdata{})), RRType::kNSEC3);
}

TEST(Rdata, AText) {
  ARdata a;
  a.address = {192, 0, 2, 7};
  EXPECT_EQ(a.to_text(), "192.0.2.7");
}

TEST(Rdata, WireEncodingCanonicalisesNames) {
  NsRdata ns;
  ns.nsdname = Name::of("NS1.Example.COM.");
  const Bytes wire = rdata_to_wire(Rdata(ns));
  EXPECT_EQ(wire, Name::of("ns1.example.com.").to_canonical_wire());
}

TEST(Rdata, SoaWireLayout) {
  SoaRdata soa;
  soa.mname = Name::of("ns.x.");
  soa.rname = Name::of("h.x.");
  soa.serial = 0x01020304;
  const Bytes wire = rdata_to_wire(Rdata(soa));
  // mname(5) + rname(4+... names "ns.x." = 2+1+1+1... compute: labels ns,x
  // -> 1+2+1+1+1 = wait: [2 n s][1 x][0] = 7? "ns"=2 bytes + len + "x"=1 +
  // len + root = 2+1+1+1+1 = 6? Just verify serial position from the end.
  ASSERT_GE(wire.size(), 20u);
  const std::size_t serial_off = wire.size() - 20;
  EXPECT_EQ(read_u32(wire, serial_off), 0x01020304u);
}

TEST(Rdata, DnskeyKeyTagStable) {
  DnskeyRdata key;
  key.flags = 257;
  key.protocol = 3;
  key.algorithm = 13;
  key.public_key = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto tag = key.key_tag();
  EXPECT_EQ(key.key_tag(), tag);  // deterministic
  key.public_key[0] = 9;
  EXPECT_NE(key.key_tag(), tag);
}

// key_tag() sums the fields directly; the wire-form checksum is the
// definition it must agree with, for every field value and key length.
TEST(Rdata, DnskeyKeyTagMatchesWireChecksumOnRandomKeys) {
  Rng rng{4034};
  for (int i = 0; i < 2000; ++i) {
    DnskeyRdata key;
    key.flags = static_cast<std::uint16_t>(rng.uniform(1u << 16));
    key.protocol = static_cast<std::uint8_t>(rng.uniform(256));
    key.algorithm = static_cast<std::uint8_t>(rng.uniform(256));
    key.public_key.resize(rng.uniform(600));
    for (auto& octet : key.public_key) {
      octet = static_cast<std::uint8_t>(rng.uniform(256));
    }
    ASSERT_EQ(key.key_tag(), crypto::key_tag(rdata_to_wire(Rdata(key))))
        << "flags " << key.flags << " length " << key.public_key.size();
  }
}

TEST(Rdata, RrsigUnsignedWireOmitsSignature) {
  RrsigRdata sig;
  sig.type_covered = RRType::kA;
  sig.algorithm = 13;
  sig.labels = 2;
  sig.original_ttl = 3600;
  sig.expiration = 1700000000;
  sig.inception = 1690000000;
  sig.key_tag = 12345;
  sig.signer = Name::of("example.com.");
  sig.signature = {9, 9, 9, 9};
  const Bytes with_sig = rdata_to_wire(Rdata(sig));
  const Bytes without = sig.to_wire_unsigned();
  EXPECT_EQ(without.size() + 4, with_sig.size());
  EXPECT_TRUE(std::equal(without.begin(), without.end(), with_sig.begin()));
}

TEST(TypeBitmap, RoundTripsTypeSets) {
  const std::set<RRType> types = {RRType::kA,     RRType::kNS,
                                  RRType::kSOA,   RRType::kMX,
                                  RRType::kRRSIG, RRType::kDNSKEY};
  EXPECT_EQ(decode_type_bitmap(encode_type_bitmap(types)), types);
}

TEST(TypeBitmap, EmptySet) {
  EXPECT_TRUE(encode_type_bitmap({}).empty());
  EXPECT_TRUE(decode_type_bitmap({}).empty());
}

TEST(TypeBitmap, KnownEncoding) {
  // A (1) and MX (15): window 0, 2 octets, bits 1 and 15.
  const Bytes wire = encode_type_bitmap({RRType::kA, RRType::kMX});
  EXPECT_EQ(wire, (Bytes{0x00, 0x02, 0x40, 0x01}));
}

TEST(Rdata, PresentationFormats) {
  DsRdata ds;
  ds.key_tag = 60485;
  ds.algorithm = 5;
  ds.digest_type = 1;
  ds.digest = *hex_decode("2bb183af5f22588179a53b0a98631fad1a292118");
  EXPECT_EQ(rdata_to_text(Rdata(ds)),
            "60485 5 1 2bb183af5f22588179a53b0a98631fad1a292118");

  Nsec3ParamRdata param;
  param.iterations = 12;
  param.salt = *hex_decode("aabbccdd");
  EXPECT_EQ(rdata_to_text(Rdata(param)), "1 0 12 aabbccdd");
  param.salt.clear();
  EXPECT_EQ(rdata_to_text(Rdata(param)), "1 0 12 -");
}

/// One round-trip case. gtest prints the parameter into each ctest name,
/// so it prints as the rdata's presentation text, not as the raw bytes
/// (heap addresses included) of the struct. The text is parenthesised so
/// no name ends in an absolute domain name's final '.', which would run
/// into the dot padding of ctest's result lines.
struct WireCase {
  Rdata rdata;
};

void PrintTo(const WireCase& wire_case, std::ostream* os) {
  *os << '(' << rdata_to_text(wire_case.rdata) << ')';
}

class RdataWireRoundTrip : public ::testing::TestWithParam<WireCase> {};

TEST_P(RdataWireRoundTrip, DecodeInvertsEncode) {
  const Rdata& original = GetParam().rdata;
  const RRType type = rdata_type(original);
  const Bytes wire = rdata_to_wire(original);
  const auto decoded = rdata_from_wire(type, wire);
  ASSERT_TRUE(decoded.has_value()) << rrtype_to_string(type);
  EXPECT_EQ(rdata_to_wire(*decoded), wire) << rrtype_to_string(type);
}

std::vector<WireCase> wire_cases() {
  std::vector<WireCase> cases;
  ARdata a;
  a.address = {10, 1, 2, 3};
  cases.emplace_back(a);
  AaaaRdata aaaa;
  aaaa.address = {0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  cases.emplace_back(aaaa);
  cases.emplace_back(NsRdata{Name::of("ns1.example.com.")});
  cases.emplace_back(CnameRdata{Name::of("target.example.com.")});
  SoaRdata soa;
  soa.mname = Name::of("ns.example.");
  soa.rname = Name::of("admin.example.");
  soa.serial = 42;
  cases.emplace_back(soa);
  cases.emplace_back(MxRdata{10, Name::of("mail.example.com.")});
  TxtRdata txt;
  txt.strings = {"hello", "world"};
  cases.emplace_back(txt);
  DnskeyRdata key;
  key.flags = 256;
  key.algorithm = 13;
  key.public_key = {1, 2, 3, 4, 5, 6, 7, 8};
  cases.emplace_back(key);
  DsRdata ds;
  ds.key_tag = 7;
  ds.algorithm = 8;
  ds.digest_type = 2;
  ds.digest = Bytes(32, 0xAA);
  cases.emplace_back(ds);
  RrsigRdata sig;
  sig.type_covered = RRType::kSOA;
  sig.algorithm = 13;
  sig.labels = 2;
  sig.original_ttl = 300;
  sig.expiration = 1700000000;
  sig.inception = 1690000000;
  sig.key_tag = 999;
  sig.signer = Name::of("example.com.");
  sig.signature = Bytes(16, 0x5A);
  cases.emplace_back(sig);
  NsecRdata nsec;
  nsec.next = Name::of("next.example.com.");
  nsec.types = {RRType::kA, RRType::kRRSIG, RRType::kNSEC};
  cases.emplace_back(nsec);
  Nsec3Rdata nsec3;
  nsec3.iterations = 5;
  nsec3.salt = {0xAB, 0xCD};
  nsec3.next_hashed = Bytes(20, 0x11);
  nsec3.types = {RRType::kA};
  cases.emplace_back(nsec3);
  Nsec3ParamRdata param;
  param.iterations = 0;
  cases.emplace_back(param);
  return cases;
}

// Each case is named by its type, so the names do not move with the
// rdata structs' layout.
INSTANTIATE_TEST_SUITE_P(
    AllTypes, RdataWireRoundTrip, ::testing::ValuesIn(wire_cases()),
    [](const ::testing::TestParamInfo<WireCase>& info) {
      return rrtype_to_string(rdata_type(info.param.rdata));
    });

}  // namespace
// ---- RRset duplicate rule: identical canonical wire form ------------------

/// The duplicate rule as written before RRset stopped encoding its members:
/// a record is a duplicate when some member has the same canonical wire.
struct WireRuleModel {
  std::vector<Rdata> rdatas;

  void add(const Rdata& rdata) {
    const Bytes wire = rdata_to_wire(rdata);
    for (const auto& existing : rdatas) {
      if (rdata_to_wire(existing) == wire) return;
    }
    rdatas.push_back(rdata);
  }

  bool remove(const Rdata& rdata) {
    const Bytes wire = rdata_to_wire(rdata);
    for (auto it = rdatas.begin(); it != rdatas.end(); ++it) {
      if (rdata_to_wire(*it) == wire) {
        rdatas.erase(it);
        return true;
      }
    }
    return false;
  }
};

/// A random rdata drawn from tiny field domains, so that wire collisions are
/// common: names that differ only in case, RRSIG times 2^32 apart, and
/// alternatives with one wire layout (NS/CNAME, DS/CDS, DNSKEY/CDNSKEY).
/// `kind` picks the alternative (its index in Rdata); 15 picks one at random.
Rdata collision_prone_rdata(Rng& rng, std::uint64_t kind) {
  const auto pick = [&](std::uint64_t n) { return rng.uniform(n); };
  const auto name = [&] {
    static const char* const kNames[] = {"a.x.", "A.x.", "a.X.", "b.x.",
                                         "B.X.", "x."};
    return Name::of(kNames[pick(6)]);
  };
  const auto bytes = [&] {
    static const Bytes kBytes[] = {{}, {1}, {1, 2}, {2}};
    return kBytes[pick(4)];
  };
  const auto types = [&] {
    static const std::set<RRType> kTypes[] = {
        {}, {RRType::kA}, {RRType::kA, RRType::kNS}};
    return kTypes[pick(3)];
  };
  const auto time = [&] {
    static const UnixTime kTimes[] = {1700000000, 1700000000 + (1LL << 32),
                                      1690000000};
    return kTimes[pick(3)];
  };
  const auto u8 = [&] { return static_cast<std::uint8_t>(pick(2)); };
  DsRdata ds;
  ds.key_tag = u8();
  ds.algorithm = 8;
  ds.digest_type = u8();
  ds.digest = bytes();
  DnskeyRdata key;
  key.flags = static_cast<std::uint16_t>(256 + pick(2));
  key.algorithm = 13;
  key.public_key = bytes();
  switch (kind < 15 ? kind : pick(15)) {
    case 0: {
      ARdata a;
      a.address = {10, 0, 0, u8()};
      return a;
    }
    case 1: {
      AaaaRdata aaaa;
      aaaa.address[15] = u8();
      return aaaa;
    }
    case 2:
      return NsRdata{name()};
    case 3:
      return CnameRdata{name()};
    case 4: {
      SoaRdata soa;
      soa.mname = name();
      soa.rname = name();
      soa.serial = u8();
      return soa;
    }
    case 5:
      return MxRdata{u8(), name()};
    case 6: {
      static const std::vector<std::string> kStrings[] = {
          {}, {""}, {"a"}, {"a", "b"}, {"ab"}};
      return TxtRdata{kStrings[pick(5)]};
    }
    case 7:
      return key;
    case 8:
      return ds;
    case 9: {
      RrsigRdata sig;
      sig.type_covered = pick(2) == 0 ? RRType::kA : RRType::kSOA;
      sig.algorithm = 13;
      sig.labels = u8();
      sig.original_ttl = 300;
      sig.expiration = time();
      sig.inception = time();
      sig.key_tag = u8();
      sig.signer = name();
      sig.signature = bytes();
      return sig;
    }
    case 10: {
      NsecRdata nsec;
      nsec.next = name();
      nsec.types = types();
      return nsec;
    }
    case 11: {
      Nsec3Rdata nsec3;
      nsec3.flags = u8();
      nsec3.salt = bytes();
      nsec3.next_hashed = bytes();
      nsec3.types = types();
      return nsec3;
    }
    case 12: {
      Nsec3ParamRdata param;
      param.iterations = u8();
      param.salt = bytes();
      return param;
    }
    case 13:
      return CdsRdata{ds};
    default:
      return CdnskeyRdata{key};
  }
}

TEST(RRsetDuplicates, NamesThatDifferOnlyInCaseAreOneRecord) {
  RRset set(Name::of("x."), RRType::kNS, 300);
  set.add(NsRdata{Name::of("NS1.Example.")});
  set.add(NsRdata{Name::of("ns1.example.")});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(std::get<NsRdata>(set.rdatas()[0]).nsdname.to_string(),
            "NS1.Example.");  // the first spelling stays
  EXPECT_TRUE(set.remove(NsRdata{Name::of("ns1.EXAMPLE.")}));
  EXPECT_TRUE(set.empty());
}

TEST(RRsetDuplicates, RrsigTimesThatCollideModTwoToThe32AreOneRecord) {
  RrsigRdata sig;
  sig.signer = Name::of("x.");
  sig.expiration = 1700000000;
  sig.inception = 1690000000;
  RrsigRdata later = sig;
  later.expiration += 1LL << 32;
  ASSERT_EQ(rdata_to_wire(sig), rdata_to_wire(later));
  ASSERT_FALSE(Rdata(sig) == Rdata(later));
  RRset set(Name::of("x."), RRType::kRRSIG, 300);
  set.add(sig);
  set.add(later);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.remove(later));
}

TEST(RRsetDuplicates, AddAndRemoveMatchTheWireFormRuleOnRandomSequences) {
  Rng rng{0x5e7d0u};
  for (int round = 0; round < 480; ++round) {
    // Rounds of one alternative collide often; mixed rounds mix layouts.
    const auto kind = static_cast<std::uint64_t>(round % 16);
    RRset set(Name::of("x."), RRType::kA, 300);
    WireRuleModel model;
    for (int op = 0; op < 32; ++op) {
      const Rdata rdata = collision_prone_rdata(rng, kind);
      if (rng.uniform(3) == 0) {
        ASSERT_EQ(set.remove(rdata), model.remove(rdata))
            << "round " << round << " op " << op;
      } else {
        set.add(rdata);
        model.add(rdata);
      }
      ASSERT_EQ(set.size(), model.rdatas.size())
          << "round " << round << " op " << op;
      for (std::size_t i = 0; i < set.size(); ++i) {
        const Rdata& got = set.rdatas()[i];
        const Rdata& want = model.rdatas[i];
        ASSERT_EQ(got.index(), want.index());
        ASSERT_EQ(rdata_to_wire(got), rdata_to_wire(want));
        ASSERT_EQ(rdata_to_text(got), rdata_to_text(want));  // same spelling
      }
    }
  }
}

}  // namespace dfx::dns
