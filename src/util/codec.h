// Text codecs used throughout DNS/DNSSEC presentation formats:
// hex (base16), base32hex (RFC 4648 §7, used by NSEC3 owner names) and
// base64 (used by DNSKEY/RRSIG presentation).
//
// Decoding is table-driven: a 256-entry inverse table maps each input
// byte to its value or a negative sentinel (invalid, '=' padding,
// skippable whitespace), so each character costs one lookup and one sign
// test. base32hex and base64 branch on a negative entry and return at
// the first invalid character; hex tests each pair of digits with one
// OR. Decode quirks are deliberate and pinned by differential tests
// against the previous branch-per-char implementation
// (tests/test_codec.cpp): '=' truncates decoding mid-string, base64
// skips ASCII whitespace, base32hex rejects it. See
// docs/PERFORMANCE.md for where these sit on the hot paths.
//
// Thread-safety: all codecs are pure functions with no shared state; safe
// to call from any number of threads concurrently.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/check.hpp"

namespace dfx {

/// Lower-case hex encoding ("deadbeef").
std::string hex_encode(ByteView data);

/// Decode hex; returns nullopt on odd length or non-hex characters.
/// Accepts upper- or lower-case. "-" decodes to an empty buffer (DNS
/// presentation convention for an empty NSEC3 salt).
[[nodiscard]] std::optional<Bytes> hex_decode(std::string_view text);

/// Base32hex without padding, upper-case, as used for NSEC3 owner labels.
DFX_HOT_PATH
std::string base32hex_encode(ByteView data);

/// Decode base32hex (case-insensitive, no padding required).
DFX_HOT_PATH
[[nodiscard]] std::optional<Bytes> base32hex_decode(std::string_view text);

/// base32hex_decode into `out`, which must hold `text.size() * 5 / 8`
/// bytes; returns the decoded length. The allocation-free form, for
/// callers that decode many labels into one buffer.
DFX_HOT_PATH
[[nodiscard]] std::optional<std::size_t> base32hex_decode_to(
    std::string_view text, std::uint8_t* out);

/// Standard base64 with padding.
DFX_HOT_PATH
std::string base64_encode(ByteView data);

/// Decode base64; whitespace is skipped, padding optional.
DFX_HOT_PATH
[[nodiscard]] std::optional<Bytes> base64_decode(std::string_view text);

}  // namespace dfx
