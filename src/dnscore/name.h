// DNS domain names: labels, wire form, presentation form and the canonical
// ordering DNSSEC depends on (RFC 4034 §6.1).
#pragma once

#include <compare>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace dfx::dns {

class Name;
class WireReader;

/// The label octet rule of Name::parse and WireReader::read_name: octets
/// above 0x20 (space). Whitespace and the C0 control octets are refused;
/// DEL (0x7F) and octets >= 0x80 are kept: everything else is legal in
/// DNS (hostnames are a stricter, separate notion).
constexpr bool label_octet_ok(std::uint8_t c) { return c > 0x20; }

/// A non-owning view of a whole Name or of one of its suffixes (the name
/// with some leftmost labels dropped). It compares, hashes and walks to
/// its parent exactly as the Name it stands for, without copying a byte,
/// so ancestor walks (zone cuts, closest enclosers, hosted-zone lookups)
/// step through views and build a Name only for what they keep.
///
/// Lifetime: a view points into its Name's buffer. It is valid while that
/// Name lives and is neither assigned to nor moved from.
class NameView {
 public:
  /// The whole of `name` (implicit: every read-only name parameter takes a
  /// view, so a Name passes as itself).
  NameView(const Name& name);  // NOLINT(google-explicit-constructor)

  bool is_root() const { return count_ == 0; }
  std::size_t label_count() const { return count_; }
  std::size_t wire_length() const { return length_; }

  /// Label `i` (0 = leftmost) in presentation case.
  std::string_view label(std::size_t i) const {
    const std::size_t at = offset(i);
    return {reinterpret_cast<const char*>(wire_ + at + 1), wire_[at]};
  }

  /// The view without its leftmost label; the parent of root is root.
  NameView parent() const;

  /// The rightmost `labels` labels; the whole view when it has no more.
  NameView suffix(std::size_t labels) const;

  /// True if this equals `ancestor` or lies underneath it.
  bool is_subdomain_of(const NameView& ancestor) const;

  /// New name with `label` prepended.
  Name child(std::string_view label) const;

  /// Uncompressed wire form, original case.
  ByteView wire() const { return {wire_, length_}; }
  /// Canonical wire form: ASCII lower-case, uncompressed (RFC 4034 §6.2).
  ByteView canonical_wire() const { return {folded_, length_}; }

  friend bool operator==(const NameView& a, const NameView& b) {
    return a.length_ == b.length_ &&
           std::memcmp(a.folded_, b.folded_, a.length_) == 0;
  }
  /// Canonical order (RFC 4034 §6.1): right-most labels first, each an
  /// unsigned octet string of folded bytes where a proper prefix sorts
  /// first. Inline, so map searches keep both views in registers; labels
  /// are short, so a byte loop beats a call to memcmp.
  friend std::strong_ordering operator<=>(const NameView& a,
                                          const NameView& b) {
    std::size_t i = a.count_;
    std::size_t j = b.count_;
    while (i > 0 && j > 0) {
      --i;
      --j;
      const std::uint8_t* la = a.folded_ + a.offset(i);
      const std::uint8_t* lb = b.folded_ + b.offset(j);
      const std::size_t na = la[0];
      const std::size_t nb = lb[0];
      const std::size_t n = na < nb ? na : nb;
      for (std::size_t k = 1; k <= n; ++k) {
        if (la[k] != lb[k]) return la[k] <=> lb[k];
      }
      if (na != nb) return na <=> nb;
    }
    return i <=> j;
  }

 private:
  friend class Name;

  NameView(const std::uint8_t* folded, const std::uint8_t* wire,
           const std::uint8_t* offsets, std::uint16_t base,
           std::uint16_t length, std::uint16_t count)
      : folded_(folded),
        wire_(wire),
        offsets_(offsets),
        base_(base),
        length_(length),
        count_(count) {}

  /// Start of label `i` within this view's wire bytes.
  std::size_t offset(std::size_t i) const {
    std::uint16_t at = 0;
    std::memcpy(&at, offsets_ + 2 * i, sizeof at);
    return static_cast<std::size_t>(at - base_);
  }

  const std::uint8_t* folded_;   // canonical wire of the suffix
  const std::uint8_t* wire_;     // presentation wire of the suffix
  const std::uint8_t* offsets_;  // the owner's offsets, from the first label
  std::uint16_t base_;           // the owner's offset of the first label
  std::uint16_t length_;         // wire octets, terminal zero included
  std::uint16_t count_;          // labels
};

/// An absolute DNS name, held as one flat buffer of bytes:
///   - the label offsets (16 bits each, most specific label first);
///   - the canonical wire form: uncompressed, ASCII-folded (RFC 4034 §6.2);
///   - the wire form in presentation case, only when it differs from the
///     canonical one (the printer and the 0x20 echo read it).
/// Names of up to 59 such bytes (e.g. a 40-octet, 5-label lower-case name)
/// live inline in the object; longer ones take one heap block. parent(),
/// child() and copies therefore cost one copy of that buffer and at most
/// one allocation, never one per label.
///
/// Comparisons, hashing and canonicalisation read the folded bytes, so
/// nothing is folded per comparison: the canonical order (RFC 4034 §6.1)
/// compares folded labels right to left, octet by octet and then by
/// length, and equality is one memcmp. The fold is ASCII-only (RFC 4343 §3): 'A'..'Z' become
/// 'a'..'z' through the one table behind `dfx::ascii_lower`
/// (util/strings.h), and every other octet, bytes >= 0x80 included, stays
/// itself. A NameView is a suffix of a Name and compares with it directly.
class Name {
 public:
  /// The root name ".".
  Name() = default;
  /// A copy of the name `view` stands for.
  explicit Name(const NameView& view);
  Name(const Name& other) { copy_from(other); }
  Name(Name&& other) noexcept { take(other); }
  Name& operator=(const Name& other);
  Name& operator=(Name&& other) noexcept;
  ~Name() { release(); }

  /// Parse presentation form; a trailing dot is optional (names are always
  /// treated as absolute). Returns nullopt for malformed names (empty
  /// labels, labels > 63 octets, total wire length > 255, an octet
  /// label_octet_ok refuses).
  [[nodiscard]] static std::optional<Name> parse(std::string_view text);

  /// Parse, throwing std::invalid_argument (for literals in tests/tools).
  static Name of(std::string_view text);

  static Name root() { return {}; }

  NameView view() const { return NameView(*this); }

  bool is_root() const { return count_ == 0; }
  std::size_t label_count() const { return count_; }

  /// Label `i` (0 = leftmost) in presentation case.
  std::string_view label(std::size_t i) const { return view().label(i); }

  /// Leftmost (most specific) label; empty string for root.
  std::string leftmost_label() const;

  /// The name with the leftmost label removed. Parent of root is root.
  Name parent() const { return Name(view().parent()); }

  /// New name with `label` prepended (child of this name).
  Name child(std::string_view label) const { return view().child(label); }

  /// True if *this equals `ancestor` or lies underneath it.
  bool is_subdomain_of(const NameView& ancestor) const {
    return view().is_subdomain_of(ancestor);
  }

  /// Labels in common with `other`, counted from the root.
  Name common_ancestor(const NameView& other) const;

  /// Uncompressed wire form, original case.
  ByteView wire() const { return view().wire(); }
  Bytes to_wire() const;

  /// Canonical wire form: ASCII lower-case, uncompressed (RFC 4034 §6.2).
  ByteView canonical_wire() const { return view().canonical_wire(); }
  Bytes to_canonical_wire() const;
  /// The same name spelled in canonical (ASCII lower) case. It keeps no
  /// presentation copy, so it stays inline up to 59 buffer bytes.
  Name canonical() const;

  /// Presentation form with trailing dot; root renders as ".".
  std::string to_string() const;

  /// Wire length (sum of labels + length octets + terminal zero).
  std::size_t wire_length() const { return length_; }

  /// Case-insensitive equality.
  bool operator==(const Name& other) const { return view() == other.view(); }
  bool operator!=(const Name& other) const { return !(*this == other); }

  /// Canonical DNSSEC ordering (RFC 4034 §6.1): names sorted by reversed
  /// label sequence, labels compared as ASCII-folded unsigned octet
  /// strings.
  std::strong_ordering operator<=>(const Name& other) const {
    return view() <=> other.view();
  }

  /// Strict weak order usable as a std::map comparator; transparent, so a
  /// map keyed on Name is searched with a NameView without building one.
  struct Less {
    using is_transparent = void;
    bool operator()(const NameView& a, const NameView& b) const {
      return (a <=> b) < 0;
    }
  };

 private:
  friend class NameView;
  friend class WireReader;

  static constexpr std::size_t kInline = 59;
  static constexpr std::uint8_t kHeap = 1;   // the buffer is on the heap
  static constexpr std::uint8_t kMixed = 2;  // presentation != canonical

  /// A name of the given labels; each must be 1..63 octets (callers have
  /// checked them against the parse() rules).
  explicit Name(std::span<const std::string_view> labels);

  const std::uint8_t* data() const {
    if ((flags_ & kHeap) == 0) return buf_;
    std::uint8_t* heap = nullptr;
    std::memcpy(&heap, buf_, sizeof heap);
    return heap;
  }
  const std::uint8_t* folded() const { return data() + 2 * count_; }
  const std::uint8_t* presentation() const {
    return (flags_ & kMixed) != 0 ? folded() + length_ : folded();
  }
  std::size_t storage_size() const {
    return 2 * static_cast<std::size_t>(count_) +
           static_cast<std::size_t>(length_) * ((flags_ & kMixed) ? 2 : 1);
  }

  /// Sizes the buffer for `count` labels in `length` wire octets (mixed:
  /// with a presentation copy) and returns it for the caller to fill.
  std::uint8_t* allocate(std::size_t length, std::size_t count, bool mixed);
  void copy_from(const Name& other);
  void take(Name& other) noexcept;
  void release() noexcept;

  // The sizes lead, so a comparison reads them and the first buffer bytes
  // from one cache line.
  std::uint16_t length_ = 1;
  std::uint16_t count_ = 0;
  std::uint8_t flags_ = 0;
  std::uint8_t buf_[kInline] = {};  // root: one zero octet
};

static_assert(sizeof(Name) <= 64);

inline NameView::NameView(const Name& name)
    : NameView(name.folded(), name.presentation(), name.data(), 0,
               name.length_, name.count_) {}

/// FNV hash over the ASCII-folded labels, consistent with Name equality.
struct NameHash {
  std::size_t operator()(const NameView& n) const;
};

}  // namespace dfx::dns
