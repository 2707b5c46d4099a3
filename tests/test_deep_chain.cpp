// Deep-hierarchy tests: the probe/grok chain walk on a four-level tree
// (root → tld → sld → sub) built by hand, including mid-chain breakage and
// insecure-cut propagation — cases the three-zone sandbox never exercises.
#include <gtest/gtest.h>

#include "analyzer/grok.h"
#include "analyzer/probe.h"
#include "authserver/farm.h"
#include "zone/signer.h"

namespace dfx {
namespace {

using dns::Name;
using dns::RRType;

constexpr UnixTime kNow = kDatasetStart;

struct Level {
  Name apex{Name::root()};
  zone::Zone unsigned_zone{Name::root()};
  zone::KeyStore keys{Name::root()};
  zone::SigningConfig config;
};

struct DeepChain {
  authserver::ServerFarm farm;
  std::vector<Level> levels;
  Rng rng{4242};

  explicit DeepChain(const std::vector<std::string>& apexes,
                     int unsigned_from = -1) {
    for (const auto& text : apexes) {
      Level level;
      level.apex = Name::of(text);
      level.unsigned_zone = zone::Zone(level.apex);
      dns::SoaRdata soa;
      soa.mname = level.apex.child("ns1");
      soa.rname = level.apex.child("hostmaster");
      level.unsigned_zone.add(level.apex, RRType::kSOA, 3600, soa);
      level.unsigned_zone.add(level.apex, RRType::kNS, 3600,
                              dns::NsRdata{Name::of("ns1.net.")});
      dns::ARdata a;
      a.address = {10, 9, 8, 7};
      level.unsigned_zone.add(level.apex, RRType::kA, 3600, a);
      level.keys = zone::KeyStore(level.apex);
      levels.push_back(std::move(level));
    }
    // Keys + delegation glue top-down.
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const bool is_signed =
          unsigned_from < 0 || static_cast<int>(i) < unsigned_from;
      if (is_signed) {
        levels[i].keys.generate(rng, zone::KeyRole::kKsk,
                                crypto::DnssecAlgorithm::kEcdsaP256Sha256,
                                kNow);
        levels[i].keys.generate(rng, zone::KeyRole::kZsk,
                                crypto::DnssecAlgorithm::kEcdsaP256Sha256,
                                kNow);
      }
      if (i > 0) {
        auto& parent = levels[i - 1];
        parent.unsigned_zone.add(levels[i].apex, RRType::kNS, 3600,
                                 dns::NsRdata{Name::of("ns1.net.")});
        if (is_signed) {
          for (const auto& key : levels[i].keys.keys()) {
            if (key.role() != zone::KeyRole::kKsk) continue;
            parent.unsigned_zone.add(
                levels[i].apex, RRType::kDS, 3600,
                zone::make_ds(key, crypto::DigestType::kSha256));
          }
        }
      }
    }
    publish_all();
  }

  void publish_all() {
    for (auto& level : levels) {
      const zone::Zone signed_zone =
          level.keys.empty()
              ? level.unsigned_zone
              : zone::sign_zone(level.unsigned_zone, level.keys,
                                level.config, kNow);
      farm.host_zone({"ns1"}, signed_zone);
    }
  }

  std::vector<Name> chain() const {
    std::vector<Name> out;
    for (const auto& level : levels) out.push_back(level.apex);
    return out;
  }

  analyzer::Snapshot grok_leaf() {
    // dfx-lint: allow(unchecked-front-back): fixture builds >=1 level
    const auto data = analyzer::probe(farm, chain(), levels.back().apex,
                                      kNow);
    return analyzer::grok(data);
  }
};

const std::vector<std::string> kFourLevels = {
    "tld.", "example.tld.", "corp.example.tld.", "dev.corp.example.tld."};

TEST(DeepChain, FourLevelSecureChainIsSv) {
  DeepChain chain(kFourLevels);
  const auto snapshot = chain.grok_leaf();
  EXPECT_EQ(snapshot.status, analyzer::SnapshotStatus::kSignedValid)
      << (snapshot.errors.empty() ? ""
                                  : snapshot.errors[0].detail);
  EXPECT_EQ(snapshot.query_zone, Name::of("dev.corp.example.tld."));
}

TEST(DeepChain, MidChainExpiryBreaksEverythingBelow) {
  DeepChain chain(kFourLevels);
  // Re-sign level 1 (example.tld.) with an expired window.
  auto& level = chain.levels[1];
  level.config.inception_offset = 40 * kDay;
  level.config.validity = -10 * kDay;
  chain.publish_all();
  const auto snapshot = chain.grok_leaf();
  EXPECT_EQ(snapshot.status, analyzer::SnapshotStatus::kSignedBogus);
  bool attributed_to_mid = false;
  for (const auto& e : snapshot.errors) {
    if (e.code == analyzer::ErrorCode::kExpiredSignature) {
      attributed_to_mid |= e.zone == Name::of("example.tld.");
    }
  }
  EXPECT_TRUE(attributed_to_mid);
}

TEST(DeepChain, InsecureCutMakesDescendantsInsecureNotBogus) {
  // Levels 0-1 signed; levels 2-3 unsigned: everything below the cut is
  // is (plain DNS), never sb.
  DeepChain chain(kFourLevels, /*unsigned_from=*/2);
  const auto snapshot = chain.grok_leaf();
  EXPECT_EQ(snapshot.status, analyzer::SnapshotStatus::kInsecure);
  EXPECT_TRUE(snapshot.errors.empty());
}

TEST(DeepChain, LameMiddleZoneIsLm) {
  DeepChain chain(kFourLevels);
  chain.farm.server("ns1").set_lame(true);
  const auto snapshot = chain.grok_leaf();
  EXPECT_EQ(snapshot.status, analyzer::SnapshotStatus::kLame);
}

TEST(DeepChain, FiveLevelChainStillValidates) {
  DeepChain chain({"a.", "b.a.", "c.b.a.", "d.c.b.a.", "e.d.c.b.a."});
  const auto snapshot = chain.grok_leaf();
  EXPECT_EQ(snapshot.status, analyzer::SnapshotStatus::kSignedValid);
}

}  // namespace
}  // namespace dfx
