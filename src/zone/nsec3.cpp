#include "zone/nsec3.h"

#include "crypto/sha1.h"
#include "util/codec.h"

namespace dfx::zone {

Bytes nsec3_hash(const dns::Name& name, ByteView salt,
                 std::uint16_t iterations) {
  crypto::Sha1 first;
  first.update(name.to_canonical_wire());
  first.update(salt);
  auto digest = first.finish();
  for (std::uint16_t i = 0; i < iterations; ++i) {
    crypto::Sha1 h;
    h.update(digest);
    h.update(salt);
    digest = h.finish();
  }
  return Bytes(digest.begin(), digest.end());
}

std::string nsec3_hash_label(const dns::Name& name, ByteView salt,
                             std::uint16_t iterations) {
  return base32hex_encode(nsec3_hash(name, salt, iterations));
}

dns::Name nsec3_owner(const dns::Name& name, const dns::Name& apex,
                      ByteView salt, std::uint16_t iterations) {
  return apex.child(nsec3_hash_label(name, salt, iterations));
}

}  // namespace dfx::zone
