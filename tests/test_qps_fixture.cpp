// bench_qps's byte-identity gate as a tier-1 test: over every answer shape
// with DO on and off, plus 80 probes only aggressive synthesis can answer,
// the cache-on frontend must answer exactly as the cache-off one. The
// digest of the cache-off responses is pinned, so a change to any served
// byte shows here before it shows in a benchmark record.
#include <gtest/gtest.h>

#include "qps_fixture.h"

namespace dfx::bench {
namespace {

TEST(QpsFixture, CacheOnMatchesCacheOffOnEveryAnswerShape) {
  // bench_common's default seed: the one bench_qps's committed record uses.
  const QpsFixture fixture(Args{}.seed);
  ASSERT_EQ(fixture.queries.size(), 70u);
  const IdentityCheck check = check_cache_identity(fixture);
  EXPECT_EQ(check.mismatches, 0) << "first: " << check.first_mismatch;
  EXPECT_GT(check.synthesized, 0);
  EXPECT_EQ(check.digest, 0x07680bf831c46336ULL);
}

}  // namespace
}  // namespace dfx::bench
