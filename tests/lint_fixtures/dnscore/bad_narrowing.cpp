// Fixture: unguarded-narrowing-cast. Lives under a dnscore/ path, so the
// rule applies. Computed values squeezed into narrow integers must sit
// under a DFX_CHECK/DFX_DCHECK bound; byte-extraction idioms and casts of
// a bare value (enum→underlying) are exempt.
#include <cstdint>
#include <vector>

namespace fixture {

uint16_t unguarded_size(const std::vector<int>& v) {
  return static_cast<uint16_t>(v.size());  // line 11: unguarded-narrowing-cast
}

uint8_t unguarded_arithmetic(int a, int b) {
  return static_cast<uint8_t>(a * 8 + b);  // line 15: unguarded-narrowing-cast
}

uint8_t high_byte(uint16_t v) {
  return static_cast<uint8_t>(v >> 8);  // ok: byte extraction
}

uint8_t low_byte(uint16_t v) {
  return static_cast<uint8_t>(v & 0xFF);  // ok: masked
}

enum class Alg : uint8_t { kRsa = 8 };

uint8_t enum_underlying(Alg alg) {
  return static_cast<uint8_t>(alg);  // ok: bare value, width proven by types
}

uint32_t widening(uint16_t v) {
  return static_cast<uint32_t>(v * 4);  // ok: not a narrowing target
}

uint16_t guarded_size(const std::vector<int>& v) {
  DFX_DCHECK(v.size() <= 0xFFFF);
  return static_cast<uint16_t>(v.size());  // ok: contract bounds it
}

int pad_between_guard_and_suppressed_one();
int pad_between_guard_and_suppressed_two();
int pad_between_guard_and_suppressed_three();
int pad_between_guard_and_suppressed_four();
int pad_between_guard_and_suppressed_five();
int pad_between_guard_and_suppressed_six();
int pad_between_guard_and_suppressed_seven();

// Namespace scope: no DFX_CHECK can run before this initializer.
const uint8_t kFolded = static_cast<uint8_t>(sizeof(Alg) * 300);  // line 50

uint16_t suppressed(const std::vector<int>& v) {
  // dfx-lint: allow(unguarded-narrowing-cast): caller caps the size
  return static_cast<uint16_t>(v.size());
}

}  // namespace fixture
