// Domain-name tests, including the canonical ordering example from
// RFC 4034 §6.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <clocale>
#include <string>
#include <vector>

#include "dnscore/name.h"
#include "util/rng.h"
#include "util/strings.h"

namespace dfx::dns {
namespace {

TEST(Name, ParsePrintRoundTrip) {
  EXPECT_EQ(Name::of("example.com.").to_string(), "example.com.");
  EXPECT_EQ(Name::of("example.com").to_string(), "example.com.");
  EXPECT_EQ(Name::of(".").to_string(), ".");
  EXPECT_EQ(Name::root().to_string(), ".");
}

TEST(Name, ParseRejectsMalformed) {
  EXPECT_FALSE(Name::parse("").has_value());
  EXPECT_FALSE(Name::parse("..").has_value());
  EXPECT_FALSE(Name::parse("a..b").has_value());
  EXPECT_FALSE(Name::parse("a b.com").has_value());
  EXPECT_FALSE(Name::parse(std::string(64, 'x') + ".com").has_value());
  // Total wire length > 255.
  std::string long_name;
  for (int i = 0; i < 10; ++i) long_name += std::string(30, 'a') + ".";
  EXPECT_FALSE(Name::parse(long_name).has_value());
}

TEST(Name, CaseInsensitiveEquality) {
  EXPECT_EQ(Name::of("Example.COM."), Name::of("example.com."));
  NameHash hash;
  EXPECT_EQ(hash(Name::of("Example.COM.")), hash(Name::of("example.com.")));
}

TEST(Name, ParentChildRelations) {
  const auto name = Name::of("www.example.com.");
  EXPECT_EQ(name.parent(), Name::of("example.com."));
  EXPECT_EQ(name.parent().parent(), Name::of("com."));
  EXPECT_EQ(name.parent().parent().parent(), Name::root());
  EXPECT_EQ(Name::root().parent(), Name::root());
  EXPECT_EQ(Name::of("example.com.").child("www"), name);
  EXPECT_EQ(name.leftmost_label(), "www");
}

TEST(Name, SubdomainRelation) {
  const auto apex = Name::of("example.com.");
  EXPECT_TRUE(Name::of("www.example.com.").is_subdomain_of(apex));
  EXPECT_TRUE(apex.is_subdomain_of(apex));
  EXPECT_TRUE(apex.is_subdomain_of(Name::root()));
  EXPECT_FALSE(Name::of("example.org.").is_subdomain_of(apex));
  EXPECT_FALSE(Name::of("otherexample.com.").is_subdomain_of(apex));
  EXPECT_TRUE(Name::of("WWW.EXAMPLE.COM.").is_subdomain_of(apex));
}

TEST(Name, CommonAncestor) {
  EXPECT_EQ(Name::of("a.b.example.com.")
                .common_ancestor(Name::of("c.example.com.")),
            Name::of("example.com."));
  EXPECT_EQ(Name::of("a.com.").common_ancestor(Name::of("b.org.")),
            Name::root());
}

TEST(Name, WireForms) {
  const auto name = Name::of("AbC.de.");
  const Bytes wire = name.to_wire();
  EXPECT_EQ(wire, (Bytes{3, 'A', 'b', 'C', 2, 'd', 'e', 0}));
  EXPECT_EQ(name.to_canonical_wire(),
            (Bytes{3, 'a', 'b', 'c', 2, 'd', 'e', 0}));
  EXPECT_EQ(Name::root().to_wire(), Bytes{0});
  EXPECT_EQ(name.wire_length(), 8u);
}

TEST(Name, CanonicalOrderingRfc4034Example) {
  // RFC 4034 §6.1 example, already in canonical order:
  const std::vector<std::string> expected = {
      "example.", "a.example.", "yljkjljk.a.example.", "Z.a.example.",
      "zABC.a.EXAMPLE.", "z.example.", "*.z.example.",
  };
  std::vector<Name> names;
  for (const auto& text : expected) names.push_back(Name::of(text));
  std::vector<Name> shuffled = {names[4], names[0], names[6], names[2],
                                names[5], names[1], names[3]};
  std::sort(shuffled.begin(), shuffled.end());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(shuffled[i], names[i]) << "position " << i;
  }
}

TEST(Name, OrderingPutsParentFirst) {
  EXPECT_LT(Name::of("example.com."), Name::of("a.example.com."));
  EXPECT_LT(Name::of("a.example.com."), Name::of("b.example.com."));
}

TEST(Name, LessWorksAsMapComparator) {
  std::map<Name, int, Name::Less> m;
  m[Name::of("b.example.")] = 1;
  m[Name::of("a.example.")] = 2;
  m[Name::of("example.")] = 3;
  EXPECT_EQ(m.begin()->second, 3);  // apex sorts first
  EXPECT_EQ(m.find(Name::of("A.EXAMPLE."))->second, 2);
}

TEST(Name, AsciiFoldMatchesCLocaleTolower) {
  // The program never calls setlocale, so it runs in the "C" locale.
  ASSERT_STREQ(std::setlocale(LC_CTYPE, nullptr), "C");
  for (int b = 0; b < 256; ++b) {
    EXPECT_EQ(static_cast<unsigned char>(ascii_lower(static_cast<char>(b))),
              std::tolower(b))
        << "byte " << b;
  }
}

// The case-insensitive comparison as it was before the ASCII table: libc's
// tolower on every byte. The differential below holds Name to it.
int reference_label_compare(const std::string& a, const std::string& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int ca = std::tolower(static_cast<unsigned char>(a[i]));
    const int cb = std::tolower(static_cast<unsigned char>(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

int reference_compare(const Name& a, const Name& b) {
  const auto& la = a.labels();
  const auto& lb = b.labels();
  std::size_t i = la.size();
  std::size_t j = lb.size();
  while (i > 0 && j > 0) {
    const int c = reference_label_compare(la[i - 1], lb[j - 1]);
    if (c != 0) return c;
    --i;
    --j;
  }
  if (i == j) return 0;
  return i < j ? -1 : 1;
}

bool reference_is_subdomain(const Name& name, const Name& ancestor) {
  const auto& ln = name.labels();
  const auto& la = ancestor.labels();
  if (la.size() > ln.size()) return false;
  const std::size_t offset = ln.size() - la.size();
  for (std::size_t i = 0; i < la.size(); ++i) {
    if (reference_label_compare(ln[offset + i], la[i]) != 0) return false;
  }
  return true;
}

std::size_t reference_hash(const Name& n) {
  std::size_t h = 0xCBF29CE484222325ULL;
  for (const auto& label : n.labels()) {
    for (char c : label) {
      h ^= static_cast<std::size_t>(
          std::tolower(static_cast<unsigned char>(c)));
      h *= 0x100000001B3ULL;
    }
    h ^= 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

Bytes reference_canonical_wire(const Name& n) {
  Bytes out;
  for (const auto& label : n.labels()) {
    out.push_back(static_cast<std::uint8_t>(label.size()));
    for (char c : label) {
      out.push_back(static_cast<std::uint8_t>(
          std::tolower(static_cast<unsigned char>(c))));
    }
  }
  out.push_back(0);
  return out;
}

// Bytes on both sides of each ASCII letter range, both cases, and bytes
// >= 0x80 (presentation form escapes them; tolower leaves them alone).
constexpr char kFoldAlphabet[] = {'a',    'A',    'z',    'Z',    'm',
                                  'M',    '0',    '-',    '@',    '[',
                                  '`',    '{',    '\x80', '\xC3', '\xDF',
                                  '\xE9', '\xFF'};

std::string random_label(Rng& rng, std::size_t max_len) {
  std::string label(1 + rng.uniform(max_len), 'a');
  for (char& c : label) c = kFoldAlphabet[rng.uniform(sizeof kFoldAlphabet)];
  return label;
}

Name name_of_labels(const std::vector<std::string>& labels) {
  std::string text;
  for (const auto& label : labels) text += label + ".";
  return labels.empty() ? Name::root() : Name::of(text);
}

/// Flip the case of a few letters; the name stays equal to the original.
std::vector<std::string> recase(Rng& rng, std::vector<std::string> labels) {
  for (auto& label : labels) {
    for (char& c : label) {
      if (rng.uniform(2) == 0) continue;
      if (c >= 'a' && c <= 'z') {
        c = static_cast<char>(c - 'a' + 'A');
      } else if (c >= 'A' && c <= 'Z') {
        c = static_cast<char>(c - 'A' + 'a');
      }
    }
  }
  return labels;
}

/// A second name related to `base` in one of the ways that matter to the
/// order: equal up to case, an ancestor, a descendant, one byte changed,
/// or unrelated.
std::vector<std::string> related(Rng& rng, std::vector<std::string> base,
                                 bool long_names) {
  switch (rng.uniform(5)) {
    case 0:
      return recase(rng, base);
    case 1:
      if (!base.empty()) {
        const auto drop = static_cast<std::ptrdiff_t>(rng.uniform(base.size()));
        base.erase(base.begin(), base.begin() + drop + 1);
      }
      return recase(rng, base);
    case 2:
      if (!long_names) base.insert(base.begin(), random_label(rng, 3));
      return recase(rng, base);
    case 3:
      if (!base.empty()) {
        auto& label = base[rng.uniform(base.size())];
        label[rng.uniform(label.size())] =
            kFoldAlphabet[rng.uniform(sizeof kFoldAlphabet)];
      }
      return recase(rng, base);
    default: {
      std::vector<std::string> other(rng.uniform(5));
      for (auto& label : other) label = random_label(rng, 3);
      return other;
    }
  }
}

TEST(Name, TableFoldMatchesTolowerComparison) {
  Rng rng(2024);
  for (int round = 0; round < 20000; ++round) {
    // One round in eight uses 127 one-octet labels, the most a name holds.
    const bool long_names = round % 8 == 0;
    std::vector<std::string> base(long_names ? 127 : rng.uniform(5));
    for (auto& label : base) label = random_label(rng, long_names ? 1 : 3);
    const Name a = name_of_labels(base);
    const Name b = name_of_labels(related(rng, base, long_names));
    SCOPED_TRACE(a.to_string() + " vs " + b.to_string());

    const int want = reference_compare(a, b);
    const auto got = a <=> b;
    EXPECT_EQ(got < 0, want < 0);
    EXPECT_EQ(got > 0, want > 0);
    EXPECT_EQ(a == b, want == 0);
    EXPECT_EQ(a.is_subdomain_of(b), reference_is_subdomain(a, b));
    EXPECT_EQ(b.is_subdomain_of(a), reference_is_subdomain(b, a));
    EXPECT_EQ(NameHash{}(a), reference_hash(a));
    EXPECT_EQ(NameHash{}(b), reference_hash(b));
    EXPECT_EQ(a.to_canonical_wire(), reference_canonical_wire(a));
  }
}

}  // namespace
}  // namespace dfx::dns
