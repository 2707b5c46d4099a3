// Wire-layer tests for the pieces beneath the one DNS codec: WireArena
// lifetime rules (the master-file tokenizer's allocator), scan_name_pieces
// against the owned read_name it backs, and the compression regression
// suite, which replicates the retired std::map suffix-table compressor
// in-test and pins byte-identical output from the hash-table replacement.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "dnscore/arena.h"
#include "dnscore/message.h"
#include "dnscore/wire.h"
#include "util/rng.h"
#include "util/strings.h"

namespace dfx::dns {
namespace {

ResourceRecord rr(const Name& owner, RRType type, Rdata rdata,
                  std::uint32_t ttl = 3600) {
  ResourceRecord record;
  record.owner = owner;
  record.type = type;
  record.ttl = ttl;
  record.rdata = std::move(rdata);
  return record;
}

// A response exercising every supported RR type, shared-suffix compression
// and EDNS — the packet shape the serving path encodes all day.
Message make_rich_response(std::uint64_t seed) {
  Rng rng(seed);
  const Name apex = Name::of("zone" + std::to_string(seed % 7) + ".Example.");
  const Name host = apex.child("www");
  Message msg;
  msg.header.id = static_cast<std::uint16_t>(rng.next_u64());
  msg.header.qr = true;
  msg.header.aa = true;
  msg.header.rd = rng.chance(0.5);
  msg.header.ad = rng.chance(0.5);
  msg.questions.push_back(Question{host, RRType::kA, RRClass::kIN});

  ARdata a;
  rng.fill(a.address);
  msg.answers.push_back(rr(host, RRType::kA, a));
  AaaaRdata aaaa;
  rng.fill(aaaa.address);
  msg.answers.push_back(rr(host, RRType::kAAAA, aaaa));
  msg.answers.push_back(rr(apex.child("alias"), RRType::kCNAME,
                           CnameRdata{host}));
  msg.answers.push_back(
      rr(host, RRType::kMX, MxRdata{10, apex.child("mail")}));
  TxtRdata txt;
  txt.strings = {"v=spf1 -all", "key=" + std::to_string(rng.uniform(1000))};
  msg.answers.push_back(rr(host, RRType::kTXT, txt));
  RrsigRdata sig;
  sig.type_covered = RRType::kA;
  sig.algorithm = 13;
  sig.labels = static_cast<std::uint8_t>(host.label_count());
  sig.original_ttl = 3600;
  sig.expiration = 1893456000;
  sig.inception = 1704067200;
  sig.key_tag = static_cast<std::uint16_t>(rng.next_u64());
  sig.signer = apex;
  sig.signature.resize(64);
  rng.fill(sig.signature);
  msg.answers.push_back(rr(host, RRType::kRRSIG, sig));

  SoaRdata soa;
  soa.mname = apex.child("ns1");
  soa.rname = apex.child("hostmaster");
  soa.serial = static_cast<std::uint32_t>(rng.next_u64());
  msg.authorities.push_back(rr(apex, RRType::kSOA, soa));
  msg.authorities.push_back(rr(apex, RRType::kNS, NsRdata{apex.child("ns1")}));
  NsecRdata nsec;
  nsec.next = apex.child("zzz");
  nsec.types = {RRType::kA, RRType::kNS, RRType::kRRSIG, RRType::kNSEC};
  msg.authorities.push_back(rr(host, RRType::kNSEC, nsec));
  Nsec3Rdata nsec3;
  nsec3.iterations = 5;
  nsec3.salt = {0xAB, 0xCD};
  nsec3.next_hashed.resize(20);
  rng.fill(nsec3.next_hashed);
  nsec3.types = {RRType::kA, RRType::kDNSKEY};
  msg.authorities.push_back(rr(apex.child("hash"), RRType::kNSEC3, nsec3));
  Nsec3ParamRdata n3p;
  n3p.iterations = 5;
  n3p.salt = {0xAB, 0xCD};
  msg.authorities.push_back(rr(apex, RRType::kNSEC3PARAM, n3p));
  DnskeyRdata key;
  key.flags = 257;
  key.algorithm = 13;
  key.public_key.resize(32);
  rng.fill(key.public_key);
  msg.authorities.push_back(rr(apex, RRType::kDNSKEY, key));
  DsRdata ds;
  ds.key_tag = key.key_tag();
  ds.algorithm = 13;
  ds.digest.resize(32);
  rng.fill(ds.digest);
  msg.authorities.push_back(rr(apex, RRType::kDS, ds));

  ARdata glue;
  rng.fill(glue.address);
  msg.additionals.push_back(rr(apex.child("ns1"), RRType::kA, glue));
  if (rng.chance(0.8)) {
    EdnsInfo edns;
    edns.udp_size = 1232;
    edns.do_bit = true;
    if (rng.chance(0.3)) {
      // One well-formed TLV (e.g. a cookie-shaped option).
      append_u16(edns.options, 10);
      append_u16(edns.options, 8);
      for (int i = 0; i < 8; ++i) {
        edns.options.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      }
    }
    msg.edns = edns;
  }
  return msg;
}

// ---------------------------------------------------------------------------
// WireArena

TEST(WireArena, CopyAliasesArenaNotSource) {
  WireArena arena;
  std::string src = "transient";
  const std::string_view view = arena.copy(std::string_view(src));
  src.assign(src.size(), 'X');  // clobber the source
  EXPECT_EQ(view, "transient");
}

TEST(WireArena, GrowthNeverMovesEarlierAllocations) {
  WireArena arena(32);  // tiny chunks force many growths
  std::vector<std::string_view> views;
  for (int i = 0; i < 200; ++i) {
    views.push_back(arena.copy(std::string_view("tok" + std::to_string(i))));
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(views[i], "tok" + std::to_string(i));
  }
}

TEST(WireArena, ResetReclaimsCapacityWithoutFreeing) {
  WireArena arena(64);
  for (int i = 0; i < 50; ++i) arena.alloc(40);
  const std::size_t cap = arena.capacity();
  EXPECT_GT(cap, 0u);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.capacity(), cap);  // chunks kept: steady-state footprint
  for (int i = 0; i < 50; ++i) arena.alloc(40);
  EXPECT_EQ(arena.capacity(), cap);  // reuse, no new chunks
}

TEST(WireArena, OversizeRequestGetsDedicatedChunk) {
  WireArena arena(64);
  auto big = arena.alloc(4096);
  ASSERT_EQ(big.size(), 4096u);
  big[0] = 1;
  big[4095] = 2;  // whole span writable
  EXPECT_GE(arena.capacity(), 4096u);
}

// ---------------------------------------------------------------------------
// Name scanning

/// A Name's labels, leftmost first, through its label view.
std::vector<std::string> labels_of(const Name& name) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < name.label_count(); ++i) {
    out.emplace_back(name.label(i));
  }
  return out;
}

/// One wire label of `n` copies of `c`.
Bytes wire_label(std::size_t n, char c) {
  Bytes out{static_cast<std::uint8_t>(n)};
  out.insert(out.end(), n, static_cast<std::uint8_t>(c));
  return out;
}

Bytes concat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& part : parts) append(out, part);
  return out;
}

TEST(ScanName, PiecesMatchOwnedReadName) {
  // "www.Example.com" at offset 0, then a compressed reference to it.
  Bytes wire;
  const char* labels[] = {"www", "Example", "com"};
  for (const char* l : labels) {
    wire.push_back(static_cast<std::uint8_t>(std::strlen(l)));
    append(wire, as_bytes(std::string_view(l)));
  }
  wire.push_back(0);
  const std::size_t ptr_at = wire.size();
  append_u16(wire, 0xC000);  // pointer to offset 0

  for (const std::size_t start : {std::size_t{0}, ptr_at}) {
    std::size_t pos = start;
    std::string_view pieces[kMaxNamePieces];
    std::size_t n = 0;
    ASSERT_TRUE(scan_name_pieces(wire, pos, pieces, &n));
    ASSERT_EQ(n, 3u);
    EXPECT_EQ(pieces[0], "www");
    EXPECT_EQ(pieces[1], "Example");  // case preserved
    EXPECT_EQ(pieces[2], "com");
    // The cursor advances past the first segment only.
    EXPECT_EQ(pos, start == 0 ? ptr_at : ptr_at + 2);
    // Zero-copy: pieces alias the wire buffer.
    EXPECT_GE(reinterpret_cast<const std::uint8_t*>(pieces[0].data()),
              wire.data());

    WireReader r(wire);
    r.seek(start);
    const auto owned = r.read_name();
    ASSERT_TRUE(owned.has_value());
    EXPECT_EQ(labels_of(*owned),
              (std::vector<std::string>{"www", "Example", "com"}));
    EXPECT_EQ(owned->to_wire(), Bytes(wire.begin(), wire.begin() + 17));
  }

  // The boundary cases read_name accepts: the pieces, and the flat Name's
  // labels and wire form, for each.
  struct Accepted {
    const char* what;
    Bytes wire;
    std::vector<std::string> labels;
  };
  const std::string l63(63, 'x');
  const std::string l61(61, 'y');
  std::vector<Accepted> accepted = {
      {"a '.' inside a wire label splits it",
       {3, 'a', '.', 'b', 3, 'c', 'o', 'm', 0},
       {"a", "b", "com"}},
      {"a trailing '.' on the last label is dropped",
       {3, 'c', 'o', 'm', 4, 'n', 'e', 't', '.', 0},
       {"com", "net"}},
      {"a lone '.' label is root", {1, '.', 0}, {}},
      {"bytes >= 0x80 are kept, unfolded",
       {3, 0x80, 0xC3, 0xFF, 1, 'Q', 0},
       {"\x80\xC3\xFF", "Q"}},
      {"0x7F is kept (only whitespace and octets below 0x21 are refused)",
       {2, 0x7F, 'a', 0},
       {"\x7F" "a"}},
      {"a 63-octet label",
       concat({wire_label(63, 'x'), {0}}),
       {l63}},
      {"a 255-octet name",
       concat({wire_label(63, 'x'), wire_label(63, 'x'), wire_label(63, 'x'),
               wire_label(61, 'y'), {0}}),
       {l63, l63, l63, l61}},
      {"127 one-octet labels", {}, std::vector<std::string>(127, "z")},
  };
  Bytes& most_labels = accepted[accepted.size() - 1].wire;
  for (int i = 0; i < 127; ++i) append(most_labels, Bytes{1, 'z'});
  most_labels.push_back(0);
  for (const Accepted& c : accepted) {
    SCOPED_TRACE(c.what);
    std::size_t pos = 0;
    std::string_view pieces[kMaxNamePieces];
    std::size_t n = 0;
    ASSERT_TRUE(scan_name_pieces(c.wire, pos, pieces, &n));
    EXPECT_EQ(std::vector<std::string>(pieces, pieces + n), c.labels);
    WireReader r(c.wire);
    const auto owned = r.read_name();
    ASSERT_TRUE(owned.has_value());
    EXPECT_EQ(labels_of(*owned), c.labels);
    Bytes expected_wire;
    for (const auto& label : c.labels) {
      expected_wire.push_back(static_cast<std::uint8_t>(label.size()));
      append(expected_wire, as_bytes(label));
    }
    expected_wire.push_back(0);
    EXPECT_EQ(owned->to_wire(), expected_wire);
    Bytes folded = expected_wire;  // length octets are below 'A'
    for (auto& byte : folded) {
      if (byte >= 'A' && byte <= 'Z') byte = static_cast<std::uint8_t>(byte + 32);
    }
    EXPECT_EQ(owned->to_canonical_wire(), folded);
    EXPECT_EQ(owned->wire_length(), expected_wire.size());
    EXPECT_LE(owned->wire_length(), 255u);
  }
}

TEST(ScanName, RejectsExactlyWhatReadNameRejects) {
  const std::vector<Bytes> bad = {
      {0xC0, 0x00},              // self-pointer loop
      {0xC0, 0x05, 0x00},        // forward/out-of-range pointer
      {3, 'a', 'b'},             // truncated label
      {0x80, 0x00},              // reserved label type bits
      {1, ' ', 0},               // forbidden character
      {1, 0x00, 0},              // NUL inside a label
      {1, 0x20, 0},              // space
      {2, 'a', 0x1F, 0},         // control octet below 0x21
      {3, 'a', 0x09, 'b', 0},    // tab
      {2, 'a', '.', 1, 'b', 0},  // '.' ending an inner label: empty piece
      {2, '.', '.', 0},          // ".." trimmed to ".": empty pieces
      {1, '.', 1, 'a', 0},       // a '.' label before another
      {0x40, 0x00},              // a 64-octet label length is reserved bits
  };
  for (const auto& wire : bad) {
    std::size_t pos = 0;
    std::string_view pieces[kMaxNamePieces];
    std::size_t n = 0;
    EXPECT_FALSE(scan_name_pieces(wire, pos, pieces, &n));
    WireReader r(wire);
    EXPECT_FALSE(r.read_name().has_value());
  }
  // A 256-octet name (one octet past the limit) and 128 one-octet labels.
  Bytes too_long = concat({wire_label(63, 'x'), wire_label(63, 'x'),
                           wire_label(63, 'x'), wire_label(62, 'y'), {0}});
  Bytes too_many;
  for (int i = 0; i < 128; ++i) append(too_many, Bytes{1, 'z'});
  too_many.push_back(0);
  for (const Bytes& wire : {too_long, too_many}) {
    std::size_t pos = 0;
    std::string_view pieces[kMaxNamePieces];
    std::size_t n = 0;
    EXPECT_FALSE(scan_name_pieces(wire, pos, pieces, &n));
    WireReader r(wire);
    EXPECT_FALSE(r.read_name().has_value());
  }
  // And a name that is fine for both: lone root.
  const Bytes root = {0};
  std::size_t pos = 0;
  std::string_view pieces[kMaxNamePieces];
  std::size_t n = 7;
  ASSERT_TRUE(scan_name_pieces(root, pos, pieces, &n));
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(pos, 1u);
}

// ---------------------------------------------------------------------------
// Compression regression: the hash-table compressor must emit bytes
// identical to the retired std::map suffix-join implementation. The old
// algorithm is replicated here verbatim (modulo formatting) as the oracle.

class MapCompressorOracle {
 public:
  void write_name(Bytes& out, const Name& name) {
    const auto labels = labels_of(name);
    for (std::size_t skip = 0; skip < labels.size(); ++skip) {
      const std::string suffix = suffix_key(name, skip);
      const auto it = table_.find(suffix);
      if (it != table_.end() && it->second < 0x3FFF) {
        emit_labels(out, name, skip);
        append_u16(out, static_cast<std::uint16_t>(0xC000 |
                                                   (it->second & 0x3FFF)));
        return;
      }
    }
    emit_labels(out, name, labels.size());
    out.push_back(0);
  }

 private:
  static std::string suffix_key(const Name& name, std::size_t skip) {
    const auto labels = labels_of(name);
    std::vector<std::string> parts;
    for (std::size_t i = skip; i < labels.size(); ++i) {
      parts.push_back(to_lower(labels[i]));
    }
    return join(parts, ".");
  }

  void emit_labels(Bytes& out, const Name& name, std::size_t count) {
    const auto labels = labels_of(name);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t offset = out.size();
      if (offset < 0x3FFF) table_.emplace(suffix_key(name, i), offset);
      out.push_back(static_cast<std::uint8_t>(labels[i].size()));
      append(out, as_bytes(labels[i]));
    }
  }

  std::map<std::string, std::size_t> table_;
};

// Re-encode a message with the oracle compressor: header and record bodies
// come from encode_message's own output via decode, only the name
// compression differs.
Bytes encode_with_oracle(const Message& msg) {
  Bytes out;
  append_u16(out, msg.header.id);
  std::uint16_t flags = 0;
  if (msg.header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>((msg.header.opcode & 0xF) << 11);
  if (msg.header.aa) flags |= 0x0400;
  if (msg.header.tc) flags |= 0x0200;
  if (msg.header.rd) flags |= 0x0100;
  if (msg.header.ra) flags |= 0x0080;
  if (msg.header.ad) flags |= 0x0020;
  if (msg.header.cd) flags |= 0x0010;
  flags |= static_cast<std::uint16_t>(msg.header.rcode) & 0xF;
  append_u16(out, flags);
  const std::size_t arcount =
      msg.additionals.size() + (msg.edns.has_value() ? 1 : 0);
  append_u16(out, static_cast<std::uint16_t>(msg.questions.size()));
  append_u16(out, static_cast<std::uint16_t>(msg.answers.size()));
  append_u16(out, static_cast<std::uint16_t>(msg.authorities.size()));
  append_u16(out, static_cast<std::uint16_t>(arcount));

  MapCompressorOracle comp;
  for (const auto& q : msg.questions) {
    comp.write_name(out, q.qname);
    append_u16(out, static_cast<std::uint16_t>(q.qtype));
    append_u16(out, static_cast<std::uint16_t>(q.qclass));
  }
  const auto write_section = [&](const std::vector<ResourceRecord>& records) {
    for (const auto& record : records) {
      comp.write_name(out, record.owner);
      append_u16(out, static_cast<std::uint16_t>(record.type));
      append_u16(out, static_cast<std::uint16_t>(record.rrclass));
      append_u32(out, record.ttl);
      const Bytes rdata = rdata_to_wire(record.rdata);
      append_u16(out, static_cast<std::uint16_t>(rdata.size()));
      append(out, rdata);
    }
  };
  write_section(msg.answers);
  write_section(msg.authorities);
  write_section(msg.additionals);
  if (msg.edns) {
    out.push_back(0);
    append_u16(out, kOptType);
    append_u16(out, msg.edns->udp_size);
    const std::uint32_t ttl =
        (static_cast<std::uint32_t>(msg.edns->ext_rcode) << 24) |
        (static_cast<std::uint32_t>(msg.edns->version) << 16) |
        (msg.edns->do_bit ? 0x8000u : 0u);
    append_u32(out, ttl);
    append_u16(out, static_cast<std::uint16_t>(msg.edns->options.size()));
    append(out, msg.edns->options);
  }
  return out;
}

TEST(CompressionRegression, HashCompressorMatchesMapCompressorBytes) {
  for (int i = 0; i < 40; ++i) {
    const Message msg = make_rich_response(i);
    EXPECT_EQ(encode_message(msg), encode_with_oracle(msg)) << "seed=" << i;
  }
}

TEST(CompressionRegression, MatchesOnCaseVariedSharedSuffixes) {
  // Compression matches case-insensitively but emits original case; the
  // two implementations must agree on which occurrence wins (first one).
  Message msg;
  msg.header.id = 7;
  msg.header.qr = true;
  const Name a = Name::of("WWW.Example.COM.");
  const Name b = Name::of("www.example.com.");
  const Name c = Name::of("mail.EXAMPLE.com.");
  msg.questions.push_back(Question{a, RRType::kA, RRClass::kIN});
  ARdata addr;
  addr.address = {192, 0, 2, 1};
  msg.answers.push_back(rr(b, RRType::kA, addr));
  msg.answers.push_back(rr(c, RRType::kA, addr));
  msg.answers.push_back(rr(a, RRType::kA, addr));
  const Bytes got = encode_message(msg);
  EXPECT_EQ(got, encode_with_oracle(msg));
  // And the compressed form still decodes: owners that compressed into a
  // pointer take the spelling of the first occurrence (the qname's case).
  const auto back = decode_message(got);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->answers[0].owner.to_string(), a.to_string());
  EXPECT_EQ(back->answers[2].owner.to_string(), a.to_string());
}

TEST(CompressionRegression, MatchesOnManyDistinctNames) {
  // Enough names to force the hash table through several growth rounds.
  Message msg;
  msg.header.qr = true;
  ARdata addr;
  addr.address = {192, 0, 2, 53};
  for (int i = 0; i < 120; ++i) {
    const Name owner =
        Name::of("h" + std::to_string(i) + ".z" + std::to_string(i % 13) +
                 ".example.");
    msg.answers.push_back(rr(owner, RRType::kA, addr));
  }
  EXPECT_EQ(encode_message(msg), encode_with_oracle(msg));
}

}  // namespace
}  // namespace dfx::dns
