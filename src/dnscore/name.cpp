#include "dnscore/name.h"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"
#include "util/strings.h"

namespace dfx::dns {
namespace {

// parse() splits a name into at most this many labels before it checks
// the 255-octet bound (which allows 127).
constexpr std::size_t kMaxParseLabels = 128;

void put_offset(std::uint8_t* offsets, std::size_t i, std::size_t at) {
  const auto value = static_cast<std::uint16_t>(at);
  std::memcpy(offsets + 2 * i, &value, sizeof value);
}

/// The heap block of a name too long for the inline buffer. Name owns it
/// through its heap flag and frees it in release(), like a small-buffer
/// string; a smart pointer would not fit the 64-byte object beside the
/// inline bytes it shares storage with.
std::uint8_t* new_block(std::size_t size) {
  // dfx-lint: allow(banned-raw-new): Name's owned heap block (see above).
  return new std::uint8_t[size];
}

/// Fold `n` bytes of `from` into `to`; true if any byte changed.
bool fold(const std::uint8_t* from, std::size_t n, std::uint8_t* to) {
  bool changed = false;
  for (std::size_t i = 0; i < n; ++i) {
    to[i] = static_cast<std::uint8_t>(ascii_lower(static_cast<char>(from[i])));
    changed |= to[i] != from[i];
  }
  return changed;
}

}  // namespace

// ---- NameView --------------------------------------------------------------

NameView NameView::parent() const {
  if (count_ == 0) return *this;
  const std::size_t step = 1 + static_cast<std::size_t>(folded_[0]);
  DFX_DCHECK(step < length_);
  return NameView(folded_ + step, wire_ + step, offsets_ + 2,
                  static_cast<std::uint16_t>(base_ + step),
                  static_cast<std::uint16_t>(length_ - step),
                  static_cast<std::uint16_t>(count_ - 1));
}

NameView NameView::suffix(std::size_t labels) const {
  if (labels >= count_) return *this;
  const std::size_t skip = count_ - labels;
  // Root has no label entry: its suffix is the terminal zero octet.
  const std::size_t step = labels == 0 ? length_ - 1u : offset(skip);
  DFX_DCHECK(step < length_);
  return NameView(folded_ + step, wire_ + step, offsets_ + 2 * skip,
                  static_cast<std::uint16_t>(base_ + step),
                  static_cast<std::uint16_t>(length_ - step),
                  static_cast<std::uint16_t>(labels));
}

bool NameView::is_subdomain_of(const NameView& ancestor) const {
  return ancestor.count_ <= count_ && suffix(ancestor.count_) == ancestor;
}

Name NameView::child(std::string_view label) const {
  // parse() enforces RFC 1035 label bounds; child() builds names directly,
  // so an oversized label here would be silently truncated at wire time.
  DFX_CHECK(!label.empty() && label.size() <= 63,
            "child label of %zu octets", label.size());
  const std::size_t head = 1 + label.size();
  DFX_CHECK(length_ + head <= 0xFFFF && count_ < 0xFFFF,
            "child of a %u-octet name", static_cast<unsigned>(length_));
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(label.data());
  std::uint8_t folded_label[63];
  const bool mixed = fold(bytes, label.size(), folded_label) ||
                     (wire_ != folded_ &&
                      std::memcmp(wire_, folded_, length_) != 0);
  Name out;
  std::uint8_t* offsets = out.allocate(head + length_, count_ + 1u, mixed);
  put_offset(offsets, 0, 0);
  for (std::size_t i = 0; i < count_; ++i) {
    put_offset(offsets, i + 1, head + offset(i));
  }
  std::uint8_t* folded = offsets + 2 * (count_ + 1u);
  folded[0] = static_cast<std::uint8_t>(label.size());
  std::memcpy(folded + 1, folded_label, label.size());
  std::memcpy(folded + head, folded_, length_);
  if (mixed) {
    std::uint8_t* wire = folded + head + length_;
    wire[0] = static_cast<std::uint8_t>(label.size());
    std::memcpy(wire + 1, bytes, label.size());
    std::memcpy(wire + head, wire_, length_);
  }
  return out;
}

std::size_t NameHash::operator()(const NameView& n) const {
  const ByteView folded = n.canonical_wire();
  std::size_t h = 0xCBF29CE484222325ULL;
  std::size_t pos = 0;
  for (std::size_t label = 0; label < n.label_count(); ++label) {
    const std::size_t len = folded[pos++];
    for (std::size_t i = 0; i < len; ++i) {
      h ^= folded[pos++];
      h *= 0x100000001B3ULL;
    }
    h ^= 0xFF;  // label boundary
    h *= 0x100000001B3ULL;
  }
  return h;
}

// ---- Name ------------------------------------------------------------------

std::uint8_t* Name::allocate(std::size_t length, std::size_t count,
                             bool mixed) {
  DFX_DCHECK(is_root() && (flags_ & kHeap) == 0);
  length_ = static_cast<std::uint16_t>(length);
  count_ = static_cast<std::uint16_t>(count);
  flags_ = mixed ? kMixed : 0;
  const std::size_t size = storage_size();
  if (size <= kInline) return buf_;
  std::uint8_t* heap = new_block(size);
  std::memcpy(buf_, &heap, sizeof heap);
  flags_ |= kHeap;
  return heap;
}

Name::Name(const NameView& view) {
  const bool mixed = view.wire_ != view.folded_ &&
                     std::memcmp(view.wire_, view.folded_, view.length_) != 0;
  std::uint8_t* offsets = allocate(view.length_, view.count_, mixed);
  for (std::size_t i = 0; i < view.count_; ++i) {
    put_offset(offsets, i, view.offset(i));
  }
  std::uint8_t* folded = offsets + 2 * count_;
  std::memcpy(folded, view.folded_, view.length_);
  if (mixed) std::memcpy(folded + length_, view.wire_, view.length_);
}

Name::Name(std::span<const std::string_view> labels) {
  // Fold into a scratch buffer first: whether a presentation copy is
  // needed (and so the buffer's size) is known only after the fold.
  std::uint8_t folded_bytes[255];
  std::size_t length = 1;
  bool mixed = false;
  for (const std::string_view label : labels) {
    DFX_DCHECK(!label.empty() && label.size() <= 63);
    DFX_DCHECK(length + 1 + label.size() <= 255);
    folded_bytes[length - 1] = static_cast<std::uint8_t>(label.size());
    mixed |= fold(reinterpret_cast<const std::uint8_t*>(label.data()),
                  label.size(), folded_bytes + length);
    length += 1 + label.size();
  }
  folded_bytes[length - 1] = 0;
  std::uint8_t* offsets = allocate(length, labels.size(), mixed);
  std::uint8_t* folded = offsets + 2 * count_;
  std::memcpy(folded, folded_bytes, length);
  std::uint8_t* wire = mixed ? folded + length : nullptr;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    put_offset(offsets, i, pos);
    if (wire != nullptr) {
      wire[pos] = folded_bytes[pos];
      std::memcpy(wire + pos + 1, labels[i].data(), labels[i].size());
    }
    pos += 1 + labels[i].size();
  }
  if (wire != nullptr) wire[pos] = 0;
}

Name Name::canonical() const {
  if ((flags_ & kMixed) == 0) return *this;
  Name out;
  // The label offsets and the folded wire, in the order the buffer keeps.
  std::memcpy(out.allocate(length_, count_, /*mixed=*/false), data(),
              2 * static_cast<std::size_t>(count_) + length_);
  return out;
}

void Name::copy_from(const Name& other) {
  std::memcpy(buf_, other.buf_, kInline);
  flags_ = other.flags_;
  length_ = other.length_;
  count_ = other.count_;
  if ((flags_ & kHeap) == 0) return;
  const std::size_t size = storage_size();
  std::uint8_t* heap = new_block(size);
  std::memcpy(heap, other.data(), size);
  std::memcpy(buf_, &heap, sizeof heap);
}

void Name::take(Name& other) noexcept {
  std::memcpy(buf_, other.buf_, kInline);
  flags_ = other.flags_;
  length_ = other.length_;
  count_ = other.count_;
  // The source becomes root without freeing what it handed over.
  other.flags_ = 0;
  other.length_ = 1;
  other.count_ = 0;
  other.buf_[0] = 0;
}

void Name::release() noexcept {
  if ((flags_ & kHeap) == 0) return;
  delete[] data();
  flags_ = 0;
}

Name& Name::operator=(const Name& other) {
  if (this == &other) return *this;
  release();
  copy_from(other);
  return *this;
}

Name& Name::operator=(Name&& other) noexcept {
  if (this == &other) return *this;
  release();
  take(other);
  return *this;
}

[[nodiscard]] std::optional<Name> Name::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return Name();
  if (text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return std::nullopt;

  std::string_view labels[kMaxParseLabels];
  std::size_t n = 0;
  std::size_t start = 0;
  std::size_t total = 1;  // terminal zero octet
  while (start <= text.size()) {
    const std::size_t dot = text.find('.', start);
    const std::string_view label = dot == std::string_view::npos
                                       ? text.substr(start)
                                       : text.substr(start, dot - start);
    if (label.empty() || label.size() > 63) return std::nullopt;
    for (char c : label) {
      if (!label_octet_ok(static_cast<std::uint8_t>(c))) return std::nullopt;
    }
    total += label.size() + 1;
    if (total > 255) return std::nullopt;
    labels[n++] = label;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return Name(std::span<const std::string_view>(labels, n));
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
  return is_root() ? std::string() : std::string(label(0));
}

Name Name::common_ancestor(const NameView& other) const {
  const NameView self = view();
  std::size_t shared = 0;
  const std::size_t most = std::min(self.label_count(), other.label_count());
  while (shared < most &&
         self.suffix(shared + 1) == other.suffix(shared + 1)) {
    ++shared;
  }
  return Name(self.suffix(shared));
}

Bytes Name::to_wire() const {
  const ByteView w = wire();
  return Bytes(w.begin(), w.end());
}

Bytes Name::to_canonical_wire() const {
  const ByteView w = canonical_wire();
  return Bytes(w.begin(), w.end());
}

std::string Name::to_string() const {
  if (is_root()) return ".";
  std::string out;
  out.reserve(length_);
  const std::uint8_t* wire = presentation();
  for (std::size_t pos = 0; wire[pos] != 0; pos += 1 + wire[pos]) {
    out.append(reinterpret_cast<const char*>(wire + pos + 1), wire[pos]);
    out.push_back('.');
  }
  return out;
}

}  // namespace dfx::dns
