// NSEC3 hashing tests, including the RFC 5155 Appendix A vectors.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha1.h"
#include "util/codec.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/strings.h"
#include "zone/nsec3.h"

namespace dfx::zone {
namespace {

TEST(Nsec3Hash, Rfc5155AppendixAVectors) {
  // RFC 5155 Appendix A: salt=aabbccdd, iterations=12.
  const Bytes salt = *hex_decode("aabbccdd");
  EXPECT_EQ(to_lower(nsec3_hash_label(dns::Name::of("example."), salt, 12)),
            "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom");
  EXPECT_EQ(to_lower(nsec3_hash_label(dns::Name::of("a.example."), salt, 12)),
            "35mthgpgcu1qg68fab165klnsnk3dpvl");
  EXPECT_EQ(
      to_lower(nsec3_hash_label(dns::Name::of("ai.example."), salt, 12)),
      "gjeqe526plbf1g8mklp59enfd789njgi");
  EXPECT_EQ(to_lower(nsec3_hash_label(dns::Name::of("ns1.example."), salt,
                                      12)),
            "2t7b4g4vsa5smi47k61mv5bv1a22bojr");
  EXPECT_EQ(
      to_lower(nsec3_hash_label(dns::Name::of("*.w.example."), salt, 12)),
      "r53bq7cc2uvmubfu5ocmm6pers9tk9en");
}

TEST(Nsec3Hash, IterationCountChangesHash) {
  const auto name = dns::Name::of("www.example.com.");
  const Bytes salt = {0x01};
  EXPECT_NE(nsec3_hash(name, salt, 0), nsec3_hash(name, salt, 1));
  EXPECT_NE(nsec3_hash(name, salt, 1), nsec3_hash(name, salt, 2));
}

TEST(Nsec3Hash, SaltChangesHash) {
  const auto name = dns::Name::of("www.example.com.");
  EXPECT_NE(nsec3_hash(name, Bytes{0x01}, 0), nsec3_hash(name, Bytes{0x02}, 0));
  EXPECT_NE(nsec3_hash(name, Bytes{}, 0), nsec3_hash(name, Bytes{0x00}, 0));
}

TEST(Nsec3Hash, CaseInsensitive) {
  const Bytes salt = {0xAA};
  EXPECT_EQ(nsec3_hash(dns::Name::of("WWW.Example.COM."), salt, 3),
            nsec3_hash(dns::Name::of("www.example.com."), salt, 3));
}

TEST(Nsec3Hash, OutputIsSha1Sized) {
  EXPECT_EQ(nsec3_hash(dns::Name::of("x."), {}, 0).size(), 20u);
}

TEST(Nsec3Owner, PrependsHashLabelToApex) {
  const auto apex = dns::Name::of("example.com.");
  const auto owner = nsec3_owner(dns::Name::of("www.example.com."), apex,
                                 {}, 0);
  EXPECT_EQ(owner.label_count(), apex.label_count() + 1);
  EXPECT_TRUE(owner.is_subdomain_of(apex));
  EXPECT_EQ(owner.leftmost_label().size(), 32u);  // base32hex of 20 bytes
}

// ---- the per-thread memo in front of nsec3_hash --------------------------

/// RFC 5155 §5 written out: SHA-1 over (lower-cased wire form || salt),
/// then `iterations` more times over (digest || salt). No memo.
Bytes reference_hash(const dns::Name& name, const Bytes& salt,
                     std::uint16_t iterations) {
  Bytes wire;
  for (std::size_t i = 0; i < name.label_count(); ++i) {
    const std::string_view label = name.label(i);
    wire.push_back(static_cast<std::uint8_t>(label.size()));
    for (const char c : label) {
      wire.push_back(static_cast<std::uint8_t>(
          c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c));
    }
  }
  wire.push_back(0);
  wire.insert(wire.end(), salt.begin(), salt.end());
  Bytes digest = crypto::Sha1::digest(wire);
  for (std::uint16_t i = 0; i < iterations; ++i) {
    Bytes next = digest;
    next.insert(next.end(), salt.begin(), salt.end());
    digest = crypto::Sha1::digest(next);
  }
  return digest;
}

/// A random name of 1–4 labels under example., in random letter case.
dns::Name random_name(Rng& rng) {
  constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-";
  std::string text;
  const auto labels = 1 + rng.uniform(4);
  for (std::uint64_t l = 0; l < labels; ++l) {
    const auto length = 1 + rng.uniform(12);
    for (std::uint64_t i = 0; i < length; ++i) {
      text.push_back(kAlphabet[rng.uniform(sizeof(kAlphabet) - 1)]);
    }
    text.push_back('.');
  }
  return dns::Name::of(text + "eXample.");
}

/// The memo's answers for a random mix of questions, each asked several
/// times, against the reference. Every name is asked with every salt and
/// iteration count, and the question pool is larger than the memo, so
/// slots are reused by different questions throughout.
void expect_memo_matches_reference(std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<Bytes> salts = {{}, {0xAB}, {0xAA, 0xBB, 0xCC, 0xDD},
                                    {0x00}};
  const std::array<std::uint16_t, 3> iterations = {0, 1, 150};
  struct Question {
    dns::Name name;
    Bytes salt;
    std::uint16_t iterations;
  };
  std::vector<Question> pool;
  for (std::size_t i = 0; i < kNsec3MemoSlots / 2; ++i) {
    const auto name = random_name(rng);
    for (const auto& salt : salts) {
      for (const auto it : iterations) pool.push_back({name, salt, it});
    }
  }
  for (int round = 0; round < 2000; ++round) {
    const auto& q = pool[rng.uniform(pool.size())];
    ASSERT_EQ(nsec3_hash(q.name, q.salt, q.iterations),
              reference_hash(q.name, q.salt, q.iterations))
        << q.name.to_string() << " salt=" << hex_encode(q.salt)
        << " iterations=" << q.iterations;
  }
}

TEST(Nsec3HashMemo, MatchesIteratedSha1Reference) {
  expect_memo_matches_reference(1);
}

TEST(Nsec3HashMemo, SameNameDifferentSaltOrIterationsOrCase) {
  const auto name = dns::Name::of("WwW.Example.COM.");
  const auto lower = dns::Name::of("www.example.com.");
  for (int pass = 0; pass < 2; ++pass) {
    for (const Bytes& salt : {Bytes{}, Bytes{0x01}, Bytes{0x02},
                              Bytes{0x01, 0x02}}) {
      for (const std::uint16_t it : {0, 1, 150}) {
        EXPECT_EQ(nsec3_hash(name, salt, it), reference_hash(name, salt, it));
        EXPECT_EQ(nsec3_hash(lower, salt, it), reference_hash(name, salt, it));
      }
    }
  }
}

TEST(Nsec3HashMemo, CollidingQuestionsEvictEachOther) {
  // Find questions that share a slot, then ask them alternately: each
  // call evicts the other's entry and must still be answered exactly.
  Rng rng(7);
  const Bytes salt = {0x5A, 0x17};
  std::vector<std::vector<dns::Name>> by_slot(kNsec3MemoSlots);
  std::vector<dns::Name> colliding;
  while (colliding.empty()) {
    const auto name = random_name(rng);
    auto& bucket = by_slot[nsec3_memo_slot(name, salt, 1)];
    if (!bucket.empty() && bucket.front() != name) {
      colliding = {bucket.front(), name};
    }
    bucket.push_back(name);
  }
  for (int i = 0; i < 8; ++i) {
    const auto& name = colliding[static_cast<std::size_t>(i % 2)];
    EXPECT_EQ(nsec3_hash(name, salt, 1), reference_hash(name, salt, 1));
  }
  // A question differing only in salt or iterations may share the slot
  // too; its answer must not be the other's.
  const auto& name = colliding[0];
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(nsec3_hash(name, salt, 1), reference_hash(name, salt, 1));
    EXPECT_EQ(nsec3_hash(name, Bytes{0x5A}, 1),
              reference_hash(name, Bytes{0x5A}, 1));
    EXPECT_EQ(nsec3_hash(name, salt, 2), reference_hash(name, salt, 2));
  }
}

TEST(Nsec3HashMemo, QuestionsTooLongForTheMemoAreHashedExactly) {
  std::string text;
  for (int i = 0; i < 4; ++i) text += std::string(60, 'a' + i) + ".";
  const auto name = dns::Name::of(text);
  ASSERT_EQ(nsec3_memo_slot(name, {}, 0), kNsec3MemoSlots);
  const Bytes salt(40, 0x11);
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(nsec3_hash(name, salt, 3), reference_hash(name, salt, 3));
  }
}

TEST(Nsec3HashMemo, TwoThreadsEachKeepTheirOwnMemo) {
  std::thread a([] { expect_memo_matches_reference(11); });
  std::thread b([] { expect_memo_matches_reference(11); });
  a.join();
  b.join();
}

TEST(Nsec3HashMemo, EveryHitIsCounted) {
  auto& hits = metrics::Registry::global().counter("zone.nsec3_hash_memo_hits");
  const std::int64_t before = hits.value();
  // A new thread starts with an empty memo: one miss, then five hits, each
  // of which counts (a per-thread tally flushed in batches would show 0).
  std::thread worker([] {
    const auto name = dns::Name::of("exact.example.");
    for (int i = 0; i < 1 + 5; ++i) (void)nsec3_hash(name, {}, 0);
  });
  worker.join();
  EXPECT_EQ(hits.value() - before, 5);
}

}  // namespace
}  // namespace dfx::zone
