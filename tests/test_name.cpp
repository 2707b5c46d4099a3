// Domain-name tests, including the canonical ordering example from
// RFC 4034 §6.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <clocale>
#include <map>
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
  // canonical(): the same name spelled in canonical case, for inline and
  // heap-held names alike.
  for (const std::string& text : std::vector<std::string>{
           "AbC.de.", "abc.de.", ".", std::string(32, 'Q') + ".Copy.Example.",
           std::string(63, 'A') + "." + std::string(63, 'b') + ".example."}) {
    const Name spelled = Name::of(text);
    const Name folded = spelled.canonical();
    EXPECT_EQ(folded, spelled) << text;
    EXPECT_EQ(folded.label_count(), spelled.label_count()) << text;
    EXPECT_EQ(folded.to_wire(), spelled.to_canonical_wire()) << text;
    EXPECT_EQ(folded.to_canonical_wire(), spelled.to_canonical_wire()) << text;
  }
  EXPECT_EQ(name.canonical().to_string(), "abc.de.");
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

// The reference side works on the generator's label vectors, so it shares
// no comparison, fold or storage code with Name.
using Labels = std::vector<std::string>;

int reference_compare(const Labels& la, const Labels& lb) {
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

bool reference_is_subdomain(const Labels& ln, const Labels& la) {
  if (la.size() > ln.size()) return false;
  const std::size_t offset = ln.size() - la.size();
  for (std::size_t i = 0; i < la.size(); ++i) {
    if (reference_label_compare(ln[offset + i], la[i]) != 0) return false;
  }
  return true;
}

/// The labels both names share, counted from the root, spelled as in `la`.
Labels reference_common_ancestor(const Labels& la, const Labels& lb) {
  std::size_t shared = 0;
  while (shared < la.size() && shared < lb.size() &&
         reference_label_compare(la[la.size() - 1 - shared],
                                 lb[lb.size() - 1 - shared]) == 0) {
    ++shared;
  }
  return Labels(la.end() - static_cast<std::ptrdiff_t>(shared), la.end());
}

std::size_t reference_hash(const Labels& labels) {
  std::size_t h = 0xCBF29CE484222325ULL;
  for (const auto& label : labels) {
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

Bytes reference_wire(const Labels& labels, bool fold) {
  Bytes out;
  for (const auto& label : labels) {
    out.push_back(static_cast<std::uint8_t>(label.size()));
    for (char c : label) {
      const auto byte = static_cast<unsigned char>(c);
      out.push_back(static_cast<std::uint8_t>(fold ? std::tolower(byte) : byte));
    }
  }
  out.push_back(0);
  return out;
}

Bytes reference_canonical_wire(const Labels& labels) {
  return reference_wire(labels, /*fold=*/true);
}

std::string reference_text(const Labels& labels) {
  if (labels.empty()) return ".";
  std::string out;
  for (const auto& label : labels) out += label + ".";
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

/// Every accessor and derived name of `name` against the reference reading
/// of `labels`, the label vector it was built from.
void expect_matches_reference(const Name& name, const Labels& labels) {
  ASSERT_EQ(name.label_count(), labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(name.label(i), labels[i]) << "label " << i;
  }
  EXPECT_EQ(name.leftmost_label(), labels.empty() ? "" : labels.front());
  EXPECT_EQ(name.to_wire(), reference_wire(labels, /*fold=*/false));
  EXPECT_EQ(name.wire_length(), name.to_wire().size());
  EXPECT_EQ(name.to_canonical_wire(), reference_canonical_wire(labels));
  EXPECT_EQ(NameHash{}(name), reference_hash(labels));
  EXPECT_EQ(name.to_string(), reference_text(labels));
  const auto reparsed = Name::parse(name.to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->to_wire(), reference_wire(labels, /*fold=*/false));
}

TEST(Name, TableFoldMatchesTolowerComparison) {
  Rng rng(2024);
  Rng child_rng(7);  // child labels; keeps `rng`'s sequence of names
  for (int round = 0; round < 20000; ++round) {
    // One round in eight uses 127 one-octet labels, the most a name holds.
    const bool long_names = round % 8 == 0;
    Labels base(long_names ? 127 : rng.uniform(5));
    for (auto& label : base) label = random_label(rng, long_names ? 1 : 3);
    const Labels other = related(rng, base, long_names);
    const Name a = name_of_labels(base);
    const Name b = name_of_labels(other);
    SCOPED_TRACE(a.to_string() + " vs " + b.to_string());

    const int want = reference_compare(base, other);
    const auto got = a <=> b;
    EXPECT_EQ(got < 0, want < 0);
    EXPECT_EQ(got > 0, want > 0);
    EXPECT_EQ(a == b, want == 0);
    EXPECT_EQ(a.is_subdomain_of(b), reference_is_subdomain(base, other));
    EXPECT_EQ(b.is_subdomain_of(a), reference_is_subdomain(other, base));
    expect_matches_reference(a, base);
    expect_matches_reference(b, other);
    expect_matches_reference(a.common_ancestor(b),
                             reference_common_ancestor(base, other));
    expect_matches_reference(b.common_ancestor(a),
                             reference_common_ancestor(other, base));

    // parent() of every ancestor, and the same walk over suffix views
    // (long names are compared in full every 16 levels).
    Labels ancestor = base;
    Name up = a;
    NameView view = a;
    while (!ancestor.empty()) {
      ancestor.erase(ancestor.begin());
      up = up.parent();
      view = view.parent();
      EXPECT_TRUE(view == up);
      EXPECT_EQ(view.label_count(), ancestor.size());
      EXPECT_EQ(view.is_subdomain_of(b),
                reference_is_subdomain(ancestor, other));
      if (long_names && ancestor.size() % 16 != 0) continue;
      expect_matches_reference(up, ancestor);
      expect_matches_reference(Name(view), ancestor);
    }
    EXPECT_EQ(up.parent(), Name::root());

    if (!long_names) {
      const std::string label = random_label(child_rng, 3);
      Labels extended = base;
      extended.insert(extended.begin(), label);
      expect_matches_reference(a.child(label), extended);
    }
  }
}

TEST(Name, MapOrderMatchesReferenceSort) {
  Rng rng(77);
  std::vector<Labels> all;
  std::map<Name, int, Name::Less> map;
  for (int i = 0; i < 3000; ++i) {
    Labels labels(rng.uniform(5));
    for (auto& label : labels) label = random_label(rng, 3);
    if (i % 3 != 0 && !all.empty()) {
      labels = related(rng, all[rng.uniform(all.size())], false);
    }
    all.push_back(labels);
    map.emplace(name_of_labels(labels), i);
  }
  std::stable_sort(all.begin(), all.end(), [](const Labels& x, const Labels& y) {
    return reference_compare(x, y) < 0;
  });
  all.erase(std::unique(all.begin(), all.end(),
                        [](const Labels& x, const Labels& y) {
                          return reference_compare(x, y) == 0;
                        }),
            all.end());
  ASSERT_EQ(map.size(), all.size());
  std::size_t i = 0;
  for (const auto& [name, _] : map) {
    EXPECT_EQ(name.to_canonical_wire(), reference_canonical_wire(all[i]))
        << "position " << i;
    ++i;
  }
}

TEST(Name, FlatNameStaysSmall) {
  static_assert(sizeof(Name) <= 64);
  // A heap-held name (long labels) and an inline one survive copies and
  // moves with their bytes intact.
  const Name long_name = Name::of(std::string(63, 'A') + "." +
                                  std::string(63, 'b') + ".example.");
  const Name short_name = Name::of("Www.Example.");
  for (const Name& original : {long_name, short_name}) {
    Name copy = original;
    EXPECT_EQ(copy.to_wire(), original.to_wire());
    Name moved = std::move(copy);
    EXPECT_EQ(moved.to_wire(), original.to_wire());
    EXPECT_EQ(copy, Name::root());  // NOLINT(bugprone-use-after-move)
    copy = moved;
    EXPECT_EQ(copy.to_string(), original.to_string());
    moved = short_name;
    EXPECT_EQ(moved.to_string(), "Www.Example.");
  }
}

}  // namespace
}  // namespace dfx::dns
