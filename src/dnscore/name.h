// DNS domain names: labels, wire form, presentation form and the canonical
// ordering DNSSEC depends on (RFC 4034 §6.1).
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace dfx::dns {

/// An absolute DNS name. Stored as a sequence of labels, root == no labels.
/// Label case is preserved for display, but all comparisons, hashing and
/// wire canonicalisation are case-insensitive per RFC 1035 / 4034. The fold
/// is ASCII-only (RFC 4343 §3): 'A'..'Z' compare as 'a'..'z' through the
/// one table behind `dfx::ascii_lower` (util/strings.h), and every other
/// octet, bytes >= 0x80 included, compares as itself.
class Name {
 public:
  /// The root name ".".
  Name() = default;

  /// Parse presentation form; a trailing dot is optional (names are always
  /// treated as absolute). Returns nullopt for malformed names (empty
  /// labels, labels > 63 octets, total wire length > 255).
  [[nodiscard]] static std::optional<Name> parse(std::string_view text);

  /// Parse, throwing std::invalid_argument (for literals in tests/tools).
  static Name of(std::string_view text);

  /// Build a Name from label pieces the caller has already validated
  /// against the `parse()` rules (non-empty, <= 63 octets, no whitespace or
  /// control characters, total wire length <= 255). This is the wire
  /// layer's allocation-lean path: `WireReader::read_name` validates label
  /// pieces during its zero-copy scan and hands them here, skipping the
  /// text round-trip `parse()` would cost. Validity is DFX_DCHECK-asserted,
  /// not re-checked in release builds — never feed it unvalidated input.
  static Name from_validated_pieces(std::span<const std::string_view> pieces);

  static Name root() { return {}; }

  bool is_root() const { return labels_.empty(); }
  std::size_t label_count() const { return labels_.size(); }
  const std::vector<std::string>& labels() const { return labels_; }

  /// Leftmost (most specific) label; empty string for root.
  std::string leftmost_label() const;

  /// The name with the leftmost label removed. Parent of root is root.
  Name parent() const;

  /// New name with `label` prepended (child of this name).
  Name child(std::string_view label) const;

  /// True if *this equals `ancestor` or lies underneath it.
  bool is_subdomain_of(const Name& ancestor) const;

  /// Labels in common with `other`, counted from the root.
  Name common_ancestor(const Name& other) const;

  /// Uncompressed wire form, original case.
  Bytes to_wire() const;

  /// Canonical wire form: ASCII lower-case, uncompressed (RFC 4034 §6.2).
  Bytes to_canonical_wire() const;

  /// Presentation form with trailing dot; root renders as ".".
  std::string to_string() const;

  /// Wire length (sum of labels + length octets + terminal zero).
  std::size_t wire_length() const;

  /// Case-insensitive equality.
  bool operator==(const Name& other) const;
  bool operator!=(const Name& other) const { return !(*this == other); }

  /// Canonical DNSSEC ordering (RFC 4034 §6.1): names sorted by reversed
  /// label sequence, labels compared as ASCII-folded unsigned octet
  /// strings.
  std::strong_ordering operator<=>(const Name& other) const;

  /// Strict weak order usable as a std::map comparator.
  struct Less {
    bool operator()(const Name& a, const Name& b) const { return a < b; }
  };

 private:
  std::vector<std::string> labels_;  // most-specific first
};

/// FNV hash over the ASCII-folded labels, consistent with Name equality.
struct NameHash {
  std::size_t operator()(const Name& n) const;
};

}  // namespace dfx::dns
