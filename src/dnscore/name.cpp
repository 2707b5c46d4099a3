#include "dnscore/name.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <stdexcept>

#include "util/check.hpp"
#include "util/strings.h"

namespace dfx::dns {
namespace {

/// Labels as case-folded octet strings (RFC 4034 §6.1): folded bytes
/// compare unsigned, and a proper prefix sorts first.
int compare_labels_folded(const std::string& a, const std::string& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto ca = static_cast<unsigned char>(ascii_lower(a[i]));
    const auto cb = static_cast<unsigned char>(ascii_lower(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

}  // namespace

[[nodiscard]] std::optional<Name> Name::parse(std::string_view text) {
  Name out;
  if (text.empty()) return std::nullopt;
  if (text == ".") return out;
  if (text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return std::nullopt;

  std::size_t start = 0;
  std::size_t total = 1;  // terminal zero octet
  while (start <= text.size()) {
    const std::size_t dot = text.find('.', start);
    const std::string_view label = dot == std::string_view::npos
                                       ? text.substr(start)
                                       : text.substr(start, dot - start);
    if (label.empty() || label.size() > 63) return std::nullopt;
    for (char c : label) {
      // Reject whitespace and control characters; everything else is legal
      // in DNS (hostnames are a stricter, separate notion).
      if (std::isspace(static_cast<unsigned char>(c)) != 0 ||
          static_cast<unsigned char>(c) < 0x21) {
        return std::nullopt;
      }
    }
    total += label.size() + 1;
    out.labels_.emplace_back(label);
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  if (total > 255) return std::nullopt;
  return out;
}

Name Name::from_validated_pieces(std::span<const std::string_view> pieces) {
  Name out;
  out.labels_.reserve(pieces.size());
  std::size_t total = 1;
  for (const std::string_view piece : pieces) {
    DFX_DCHECK(!piece.empty() && piece.size() <= 63);
    total += piece.size() + 1;
    out.labels_.emplace_back(piece);
  }
  DFX_DCHECK(total <= 255);
  (void)total;
  return out;
}

Name Name::of(std::string_view text) {
  auto parsed = parse(text);
  if (!parsed) {
    throw std::invalid_argument("Name::of: malformed name '" +
                                std::string(text) + "'");
  }
  return *std::move(parsed);
}

std::string Name::leftmost_label() const {
  return labels_.empty() ? std::string() : labels_.front();
}

Name Name::parent() const {
  Name out;
  if (labels_.size() <= 1) return out;
  out.labels_.assign(labels_.begin() + 1, labels_.end());
  return out;
}

Name Name::child(std::string_view label) const {
  // parse() enforces RFC 1035 label bounds; child() builds names directly,
  // so an oversized label here would be silently truncated at wire time.
  DFX_CHECK(!label.empty() && label.size() <= 63,
            "child label of %zu octets", label.size());
  Name out;
  out.labels_.reserve(labels_.size() + 1);
  out.labels_.emplace_back(label);
  out.labels_.insert(out.labels_.end(), labels_.begin(), labels_.end());
  return out;
}

bool Name::is_subdomain_of(const Name& ancestor) const {
  if (ancestor.labels_.size() > labels_.size()) return false;
  const std::size_t offset = labels_.size() - ancestor.labels_.size();
  for (std::size_t i = 0; i < ancestor.labels_.size(); ++i) {
    if (compare_labels_folded(labels_[offset + i], ancestor.labels_[i]) != 0) {
      return false;
    }
  }
  return true;
}

Name Name::common_ancestor(const Name& other) const {
  // `other` may be an NSEC next name straight off the wire (negative-cache
  // synthesis); parse() caps any name at 127 labels, re-asserted here since
  // the label counts below drive the suffix walk.
  DFX_DCHECK(other.label_count() <= 127);
  Name out;
  std::size_t i = labels_.size();
  std::size_t j = other.labels_.size();
  std::vector<std::string> shared;
  // Both operands may carry wire-derived label counts (NSEC next names in
  // the negative cache); RFC 1035 caps a name at 127 labels, so the walk is
  // bounded independent of either input.
  DFX_BOUNDED_LOOP(guard, 128);
  while (i > 0 && j > 0 &&
         compare_labels_folded(labels_[i - 1], other.labels_[j - 1]) == 0) {
    guard.tick();
    shared.push_back(labels_[i - 1]);
    --i;
    --j;
  }
  std::reverse(shared.begin(), shared.end());
  out.labels_ = std::move(shared);
  return out;
}

Bytes Name::to_wire() const {
  Bytes out;
  out.reserve(wire_length());
  for (const auto& label : labels_) {
    DFX_DCHECK(label.size() <= 63);
    out.push_back(static_cast<std::uint8_t>(label.size()));
    append(out, as_bytes(label));
  }
  out.push_back(0);
  return out;
}

Bytes Name::to_canonical_wire() const {
  Bytes out;
  out.reserve(wire_length());
  for (const auto& label : labels_) {
    DFX_DCHECK(label.size() <= 63);
    out.push_back(static_cast<std::uint8_t>(label.size()));
    for (char c : label) {
      out.push_back(static_cast<unsigned char>(ascii_lower(c)));
    }
  }
  out.push_back(0);
  return out;
}

std::string Name::to_string() const {
  if (labels_.empty()) return ".";
  std::string out;
  for (const auto& label : labels_) {
    out += label;
    out.push_back('.');
  }
  return out;
}

std::size_t Name::wire_length() const {
  std::size_t total = 1;
  for (const auto& label : labels_) total += label.size() + 1;
  return total;
}

bool Name::operator==(const Name& other) const {
  if (labels_.size() != other.labels_.size()) return false;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (compare_labels_folded(labels_[i], other.labels_[i]) != 0) return false;
  }
  return true;
}

std::strong_ordering Name::operator<=>(const Name& other) const {
  // RFC 4034 §6.1: compare right-most labels first.
  std::size_t i = labels_.size();
  std::size_t j = other.labels_.size();
  while (i > 0 && j > 0) {
    const int c = compare_labels_folded(labels_[i - 1], other.labels_[j - 1]);
    if (c != 0) {
      return c < 0 ? std::strong_ordering::less : std::strong_ordering::greater;
    }
    --i;
    --j;
  }
  if (i == j) return std::strong_ordering::equal;
  return i < j ? std::strong_ordering::less : std::strong_ordering::greater;
}

std::size_t NameHash::operator()(const Name& n) const {
  std::size_t h = 0xCBF29CE484222325ULL;
  for (const auto& label : n.labels()) {
    for (char c : label) {
      h ^= static_cast<unsigned char>(ascii_lower(c));
      h *= 0x100000001B3ULL;
    }
    h ^= 0xFF;  // label boundary
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace dfx::dns
