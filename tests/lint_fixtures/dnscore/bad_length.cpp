// Fixture (path-scoped to dnscore/): memcpy/resize on a DFX_TAINTED length
// without a dominating DFX_CHECK contract (unchecked-taint-flow sinks).
#include <cstring>
#include <vector>

void copy_unchecked(std::vector<unsigned char>& dst, const unsigned char* src,
                    DFX_TAINTED unsigned long n) {
  dst.clear();
  int pad = 0;
  (void)pad;
  pad += 1;
  pad += 2;
  dst.resize(n);                   // line 13: unchecked-taint-flow
  std::memcpy(dst.data(), src, n); // line 14: unchecked-taint-flow
}

#define DFX_CHECK(cond, ...) ((void)0)  // stand-in so the fixture compiles

void copy_checked(std::vector<unsigned char>& dst, const unsigned char* src,
                  DFX_TAINTED unsigned long n) {
  DFX_CHECK(n <= 512, "bounded copy");
  dst.resize(n);                    // guarded: no violation
  std::memcpy(dst.data(), src, n);  // guarded: no violation
}
