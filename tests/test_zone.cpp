// Zone container tests: RRset management, delegations, occlusion, and the
// copy-on-write sharing of records between copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "authserver/farm.h"
#include "zone/zone.h"

namespace dfx::zone {
namespace {

using dns::Name;
using dns::RRType;

Zone make_zone() {
  const Name apex = Name::of("example.com.");
  Zone zone(apex);
  dns::SoaRdata soa;
  soa.mname = apex.child("ns1");
  soa.rname = apex.child("hostmaster");
  soa.serial = 100;
  zone.add(apex, RRType::kSOA, 3600, soa);
  zone.add(apex, RRType::kNS, 3600, dns::NsRdata{apex.child("ns1")});
  dns::ARdata a;
  a.address = {192, 0, 2, 1};
  zone.add(apex.child("ns1"), RRType::kA, 3600, a);
  zone.add(apex.child("www"), RRType::kA, 3600, a);
  return zone;
}

TEST(Zone, AddAndFind) {
  const Zone zone = make_zone();
  EXPECT_NE(zone.find(zone.apex(), RRType::kSOA), nullptr);
  EXPECT_NE(zone.find(Name::of("www.example.com."), RRType::kA), nullptr);
  EXPECT_EQ(zone.find(Name::of("www.example.com."), RRType::kMX), nullptr);
  EXPECT_EQ(zone.find(Name::of("nope.example.com."), RRType::kA), nullptr);
}

TEST(Zone, DuplicateRdataMergesIntoOneRecord) {
  Zone zone = make_zone();
  dns::ARdata a;
  a.address = {192, 0, 2, 1};
  zone.add(Name::of("www.example.com."), RRType::kA, 3600, a);
  EXPECT_EQ(zone.find(Name::of("www.example.com."), RRType::kA)->size(), 1u);
  a.address = {192, 0, 2, 2};
  zone.add(Name::of("www.example.com."), RRType::kA, 3600, a);
  EXPECT_EQ(zone.find(Name::of("www.example.com."), RRType::kA)->size(), 2u);
}

TEST(Zone, RemoveRdataDropsEmptyRRsets) {
  Zone zone = make_zone();
  dns::ARdata a;
  a.address = {192, 0, 2, 1};
  EXPECT_TRUE(
      zone.remove_rdata(Name::of("www.example.com."), RRType::kA, a));
  EXPECT_EQ(zone.find(Name::of("www.example.com."), RRType::kA), nullptr);
  EXPECT_FALSE(zone.name_exists(Name::of("www.example.com.")));
  EXPECT_FALSE(
      zone.remove_rdata(Name::of("www.example.com."), RRType::kA, a));
}

TEST(Zone, NameExistenceAndDescendants) {
  const Zone zone = make_zone();
  EXPECT_TRUE(zone.name_exists(Name::of("www.example.com.")));
  EXPECT_FALSE(zone.name_exists(Name::of("sub.www.example.com.")));
  // An empty non-terminal "exists" through its descendants.
  Zone ent = make_zone();
  dns::ARdata a;
  a.address = {1, 1, 1, 1};
  ent.add(Name::of("host.ent.example.com."), RRType::kA, 60, a);
  EXPECT_FALSE(ent.name_exists(Name::of("ent.example.com.")));
  EXPECT_TRUE(ent.name_or_descendant_exists(Name::of("ent.example.com.")));
}

TEST(Zone, DelegationDetection) {
  Zone zone = make_zone();
  zone.add(Name::of("child.example.com."), RRType::kNS, 3600,
           dns::NsRdata{Name::of("ns1.child.example.com.")});
  dns::ARdata glue;
  glue.address = {10, 0, 0, 1};
  zone.add(Name::of("ns1.child.example.com."), RRType::kA, 3600, glue);

  EXPECT_TRUE(zone.is_delegation(Name::of("child.example.com.")));
  EXPECT_FALSE(zone.is_delegation(zone.apex()));  // apex NS is not a cut
  EXPECT_FALSE(zone.is_delegation(Name::of("www.example.com.")));

  // Glue under the cut is occluded.
  const auto cut =
      zone.covering_delegation(Name::of("ns1.child.example.com."));
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(*cut, Name::of("child.example.com."));
  EXPECT_FALSE(
      zone.covering_delegation(Name::of("www.example.com.")).has_value());
}

TEST(Zone, OwnersInCanonicalOrder) {
  const Zone zone = make_zone();
  const auto owners = zone.owner_names();
  ASSERT_GE(owners.size(), 3u);
  EXPECT_EQ(owners.front(), zone.apex());
  for (std::size_t i = 1; i < owners.size(); ++i) {
    EXPECT_LT(owners[i - 1], owners[i]);
  }
}

TEST(Zone, ToRecordsPutsSoaFirst) {
  const Zone zone = make_zone();
  const auto records = zone.to_records();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().type, RRType::kSOA);
}

TEST(Zone, SoaAccessAndSerialBump) {
  Zone zone = make_zone();
  ASSERT_NE(zone.soa(), nullptr);
  EXPECT_EQ(zone.soa()->serial, 100u);
  zone.bump_serial();
  EXPECT_EQ(zone.soa()->serial, 101u);
}

TEST(Zone, PutReplacesRRset) {
  Zone zone = make_zone();
  dns::RRset fresh(zone.apex(), RRType::kNS, 60);
  fresh.add(dns::NsRdata{Name::of("other.ns.example.")});
  zone.put(fresh);
  const auto* ns = zone.find(zone.apex(), RRType::kNS);
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->ttl(), 60u);
  EXPECT_EQ(ns->size(), 1u);
}

// ---- Copies share records until one of them writes ------------------------

/// Every record of `zone` as presentation text, in to_records() order.
std::vector<std::string> zone_text(const Zone& zone) {
  std::vector<std::string> out;
  for (const auto& record : zone.to_records()) out.push_back(record.to_text());
  return out;
}

/// Each mutator, applied to a zone built by make_zone(), changes it.
std::vector<std::pair<std::string, std::function<void(Zone&)>>> mutators() {
  const Name www = Name::of("www.example.com.");
  dns::ARdata other;
  other.address = {192, 0, 2, 99};
  dns::ARdata first;
  first.address = {192, 0, 2, 1};
  return {
      {"add", [=](Zone& z) { z.add(www, RRType::kA, 3600, other); }},
      {"add_record",
       [=](Zone& z) {
         z.add(dns::ResourceRecord{Name::of("new.example.com."), RRType::kA,
                                   dns::RRClass::kIN, 60, other});
       }},
      {"put",
       [=](Zone& z) {
         dns::RRset fresh(www, RRType::kA, 60);
         fresh.add(other);
         z.put(std::move(fresh));
       }},
      {"remove", [=](Zone& z) { EXPECT_TRUE(z.remove(www, RRType::kA)); }},
      {"remove_rdata",
       [=](Zone& z) { EXPECT_TRUE(z.remove_rdata(www, RRType::kA, first)); }},
      {"remove_name", [=](Zone& z) { z.remove_name(www); }},
      {"find_mutable",
       [=](Zone& z) {
         auto* rrset = z.find_mutable(www, RRType::kA);
         ASSERT_NE(rrset, nullptr);
         rrset->set_ttl(5);
       }},
      {"bump_serial", [](Zone& z) { z.bump_serial(); }},
  };
}

TEST(ZoneCopy, CopyAndOriginalStayIndependentUnderEveryMutator) {
  const std::vector<std::string> pristine = zone_text(make_zone());
  for (const auto& [name, mutate] : mutators()) {
    SCOPED_TRACE(name);
    {  // the copy writes
      const Zone original = make_zone();
      Zone copy = original;
      mutate(copy);
      EXPECT_NE(zone_text(copy), pristine);
      EXPECT_EQ(zone_text(original), pristine);
    }
    {  // the original writes
      Zone original = make_zone();
      const Zone copy = original;
      mutate(original);
      EXPECT_NE(zone_text(original), pristine);
      EXPECT_EQ(zone_text(copy), pristine);
    }
    {  // copy-assignment shares as the copy constructor does
      Zone original = make_zone();
      Zone assigned(Name::of("other."));
      assigned = original;
      EXPECT_EQ(assigned.apex(), original.apex());
      mutate(assigned);
      EXPECT_EQ(zone_text(original), pristine);
      mutate(original);
      EXPECT_EQ(zone_text(original), zone_text(assigned));
    }
  }
}

// ---- The signature bound each version keeps ----------------------------

/// The signature bound recounted from scratch, by a walk over the zone.
Zone::SignatureBound recount(const Zone& zone) {
  Zone::SignatureBound bound;
  for (const dns::RRset* rrset : zone.all_rrsets()) {
    if (rrset->type() == RRType::kRRSIG) {
      ++bound.rrsig_sets;
      bound.largest_rrsig_set =
          std::max(bound.largest_rrsig_set, rrset->size());
    } else if (rrset->type() == RRType::kNSEC3) {
      for (const auto& rdata : rrset->rdatas()) {
        if (const auto* n = std::get_if<dns::Nsec3Rdata>(&rdata)) {
          bound.max_nsec3_iterations =
              std::max(bound.max_nsec3_iterations, n->iterations);
        }
      }
    }
  }
  return bound;
}

void expect_bound(const Zone& zone, const Zone::SignatureBound& want) {
  const auto got = zone.signature_bound();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->rrsig_sets, want.rrsig_sets);
  EXPECT_EQ(got->largest_rrsig_set, want.largest_rrsig_set);
  EXPECT_EQ(got->max_nsec3_iterations, want.max_nsec3_iterations);
}

dns::RrsigRdata sig_over(RRType covered, std::uint16_t key_tag) {
  dns::RrsigRdata sig;
  sig.type_covered = covered;
  sig.algorithm = 13;
  sig.key_tag = key_tag;
  sig.signer = Name::of("example.com.");
  return sig;
}

dns::Nsec3Rdata nsec3_with(std::uint16_t iterations) {
  dns::Nsec3Rdata n;
  n.iterations = iterations;
  n.next_hashed.assign(20, static_cast<std::uint8_t>(iterations));
  return n;
}

/// make_zone() plus RRSIG sets of three and one rdatas and two NSEC3
/// records, so every mutator below moves the bound.
Zone make_signed_zone() {
  Zone zone = make_zone();
  const Name apex = zone.apex();
  const Name www = Name::of("www.example.com.");
  for (const std::uint16_t tag : {1, 2, 3}) {
    zone.add(apex, RRType::kRRSIG, 3600, sig_over(RRType::kSOA, tag));
  }
  zone.add(www, RRType::kRRSIG, 3600, sig_over(RRType::kA, 1));
  zone.add(Name::of("0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.example.com."),
           RRType::kNSEC3, 3600, nsec3_with(10));
  zone.add(Name::of("2t7b4g4vsa5smi47k61mv5bv1a22bojr.example.com."),
           RRType::kNSEC3, 3600, nsec3_with(25));
  return zone;
}

/// Each mutator changes make_signed_zone()'s bound, or (find_mutable on an
/// RRSIG set) makes it unknown.
std::vector<std::pair<std::string, std::function<void(Zone&)>>>
bound_mutators() {
  const Name apex = Name::of("example.com.");
  const Name www = Name::of("www.example.com.");
  const Name high = Name::of("2t7b4g4vsa5smi47k61mv5bv1a22bojr.example.com.");
  return {
      {"add grows the largest set",
       [=](Zone& z) {
         z.add(apex, RRType::kRRSIG, 3600, sig_over(RRType::kNS, 4));
       }},
      {"add a new set and higher iterations",
       [=](Zone& z) {
         z.add(Name::of("new.example.com."), RRType::kRRSIG, 3600,
               sig_over(RRType::kA, 1));
         z.add(Name::of("vvvv.example.com."), RRType::kNSEC3, 3600,
               nsec3_with(40));
       }},
      {"put shrinks the largest set",
       [=](Zone& z) {
         dns::RRset fresh(apex, RRType::kRRSIG, 3600);
         fresh.add(sig_over(RRType::kSOA, 9));
         z.put(std::move(fresh));
       }},
      {"put lowers iterations",
       [=](Zone& z) {
         dns::RRset fresh(high, RRType::kNSEC3, 3600);
         fresh.add(nsec3_with(1));
         z.put(std::move(fresh));
       }},
      {"remove the largest set",
       [=](Zone& z) { EXPECT_TRUE(z.remove(apex, RRType::kRRSIG)); }},
      {"remove the highest iterations",
       [=](Zone& z) { EXPECT_TRUE(z.remove(high, RRType::kNSEC3)); }},
      {"remove_rdata from the largest set",
       [=](Zone& z) {
         EXPECT_TRUE(z.remove_rdata(apex, RRType::kRRSIG,
                                    sig_over(RRType::kSOA, 2)));
       }},
      {"remove_rdata empties a set",
       [=](Zone& z) {
         EXPECT_TRUE(
             z.remove_rdata(www, RRType::kRRSIG, sig_over(RRType::kA, 1)));
         EXPECT_TRUE(z.remove_rdata(high, RRType::kNSEC3, nsec3_with(25)));
       }},
      {"remove_name",
       [=](Zone& z) {
         z.remove_name(apex);
         z.remove_name(high);
       }},
      {"find_mutable on an RRSIG set",
       [=](Zone& z) {
         auto* rrset = z.find_mutable(www, RRType::kRRSIG);
         ASSERT_NE(rrset, nullptr);
         rrset->add(sig_over(RRType::kA, 7));
       }},
  };
}

TEST(ZoneCopy, SignatureBoundsOfCopyAndOriginalStayIndependent) {
  const Zone::SignatureBound pristine = recount(make_signed_zone());
  expect_bound(make_signed_zone(), pristine);
  EXPECT_EQ(pristine.rrsig_sets, 2u);
  EXPECT_EQ(pristine.largest_rrsig_set, 3u);
  EXPECT_EQ(pristine.max_nsec3_iterations, 25u);
  for (const auto& [name, mutate] : bound_mutators()) {
    SCOPED_TRACE(name);
    const bool makes_unknown = name.starts_with("find_mutable");
    const auto check_written = [&](const Zone& written) {
      if (makes_unknown) {
        EXPECT_FALSE(written.signature_bound().has_value());
        return;
      }
      const Zone::SignatureBound now = recount(written);
      expect_bound(written, now);
      EXPECT_TRUE(now.rrsig_sets != pristine.rrsig_sets ||
                  now.largest_rrsig_set != pristine.largest_rrsig_set ||
                  now.max_nsec3_iterations != pristine.max_nsec3_iterations)
          << "the mutator should move the bound";
    };
    {  // the copy writes
      const Zone original = make_signed_zone();
      Zone copy = original;
      mutate(copy);
      check_written(copy);
      expect_bound(original, pristine);
    }
    {  // the original writes
      Zone original = make_signed_zone();
      const Zone copy = original;
      mutate(original);
      check_written(original);
      expect_bound(copy, pristine);
    }
    {  // an unshared zone writes in place
      Zone zone = make_signed_zone();
      mutate(zone);
      check_written(zone);
    }
  }
}

TEST(ZoneCopy, FindMutableKeepsTheBoundForOtherTypes) {
  Zone zone = make_signed_zone();
  zone.find_mutable(Name::of("www.example.com."), RRType::kA)->set_ttl(5);
  expect_bound(zone, recount(make_signed_zone()));
  EXPECT_EQ(Zone(Name::of("empty.")).signature_bound()->rrsig_sets, 0u);
}

TEST(ZoneCopy, MutatingAnUnsharedZoneLeavesLaterCopiesAlone) {
  Zone zone = make_zone();
  const Zone before = zone;
  zone.bump_serial();  // clones once
  const Zone middle = zone;
  zone.bump_serial();  // shared again: clones again
  zone.bump_serial();  // unshared: in place
  EXPECT_EQ(before.soa()->serial, 100u);
  EXPECT_EQ(middle.soa()->serial, 101u);
  EXPECT_EQ(zone.soa()->serial, 103u);
}

TEST(ZoneCopy, PointerTakenBeforeACopyWritesReadsTheOldVersion) {
  const Name www = Name::of("www.example.com.");
  const Zone original = make_zone();
  const dns::RRset* before = original.find(www, RRType::kA);
  ASSERT_NE(before, nullptr);
  const auto all_before = original.all_rrsets();
  const auto at_www = original.at(www);

  Zone copy = original;
  const dns::RRset* from_copy = copy.find(www, RRType::kA);
  EXPECT_EQ(from_copy, before);  // one version, shared
  copy.find_mutable(www, RRType::kA)->set_ttl(5);
  dns::ARdata extra;
  extra.address = {192, 0, 2, 50};
  copy.add(www, RRType::kA, 3600, extra);
  copy.remove_name(Name::of("ns1.example.com."));

  // `original` still holds the old version, so every pointer into it —
  // including the one taken through `copy` — reads the old records.
  for (const dns::RRset* rrset : {before, from_copy}) {
    EXPECT_EQ(rrset->ttl(), 3600u);
    EXPECT_EQ(rrset->size(), 1u);
  }
  ASSERT_EQ(at_www.size(), 1u);
  EXPECT_EQ(at_www.front(), before);
  EXPECT_EQ(all_before.size(), original.all_rrsets().size());
  EXPECT_EQ(copy.find(www, RRType::kA)->ttl(), 5u);
  EXPECT_EQ(copy.find(www, RRType::kA)->size(), 2u);
}

TEST(ZoneCopy, MovedFromZoneIsEmptyAndUsable) {
  Zone source = make_zone();
  const std::vector<std::string> pristine = zone_text(source);
  Zone moved = std::move(source);
  EXPECT_EQ(zone_text(moved), pristine);
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the subject
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.find(Name::of("www.example.com."), RRType::kA), nullptr);
  EXPECT_TRUE(source.all_rrsets().empty());
  EXPECT_TRUE(source.owner_names().empty());
  EXPECT_TRUE(source.to_records().empty());
  EXPECT_EQ(source.soa(), nullptr);
  source.bump_serial();  // no SOA: nothing to bump
  EXPECT_FALSE(source.remove(Name::of("www.example.com."), RRType::kA));

  source = make_zone();  // assignable again
  EXPECT_EQ(zone_text(source), pristine);
  Zone assigned(Name::of("other."));
  assigned = std::move(source);
  EXPECT_EQ(zone_text(assigned), pristine);
  EXPECT_TRUE(source.empty());
  dns::ARdata a;
  a.address = {192, 0, 2, 7};
  source.add(Name::of("fresh.example.com."), RRType::kA, 60, a);
  EXPECT_EQ(source.all_rrsets().size(), 1u);
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(zone_text(moved), pristine);
  EXPECT_EQ(zone_text(assigned), pristine);
}

// ---------------------------------------------------------------------------
// Chain stamps

/// make_zone() with an NSEC chain over its three owners, one NSEC3 record,
/// an apex NSEC3PARAM and an apex RRSIG.
Zone chained_zone() {
  Zone zone = make_zone();
  const Name apex = zone.apex();
  const Name owners[] = {apex, apex.child("ns1"), apex.child("www")};
  for (std::size_t i = 0; i < std::size(owners); ++i) {
    zone.add(owners[i], RRType::kNSEC, 3600,
             dns::NsecRdata{owners[(i + 1) % std::size(owners)],
                            {RRType::kA, RRType::kNSEC}});
  }
  zone.add(apex.child("0p9mhaveqvm6t7vbl5lop2u3t2rp3tom"), RRType::kNSEC3,
           3600, dns::Nsec3Rdata{});
  zone.add(apex, RRType::kNSEC3PARAM, 0, dns::Nsec3ParamRdata{});
  dns::RrsigRdata sig;
  sig.type_covered = RRType::kSOA;
  sig.signer = apex;
  zone.add(apex, RRType::kRRSIG, 3600, sig);
  return zone;
}

/// The zone's NSEC and NSEC3 RRset counts agree with a walk.
void expect_chain_counts(const Zone& zone) {
  std::size_t nsec = 0;
  std::size_t nsec3 = 0;
  zone.for_each_rrset([&](const dns::RRset& rrset) {
    nsec += rrset.type() == RRType::kNSEC ? 1 : 0;
    nsec3 += rrset.type() == RRType::kNSEC3 ? 1 : 0;
  });
  EXPECT_EQ(zone.nsec_rrsets(), nsec);
  EXPECT_EQ(zone.nsec3_rrsets(), nsec3);
}

TEST(ChainStamp, CopiesAndEditsOutsideTheChainKeepTheStamp) {
  const Zone original = chained_zone();
  ASSERT_NE(original.chain_stamp(), 0u);
  const Zone copy = original;
  EXPECT_EQ(copy.chain_stamp(), original.chain_stamp());
  EXPECT_TRUE(copy.same_chain(original));

  // A clone edited only outside the chain: SOA bump, RRSIG re-put, A add.
  Zone edited = original;
  edited.bump_serial();
  const dns::RRset* sigs = edited.find(edited.apex(), RRType::kRRSIG);
  ASSERT_NE(sigs, nullptr);
  edited.put(dns::RRset(*sigs));
  edited.add(Name::of("new.example.com."), RRType::kA, 60,
             dns::ARdata{{192, 0, 2, 8}});
  edited.remove(Name::of("ns1.example.com."), RRType::kA);
  EXPECT_NE(zone_text(edited), zone_text(original));
  EXPECT_EQ(edited.chain_stamp(), original.chain_stamp());
  EXPECT_TRUE(edited.same_chain(original));
  EXPECT_TRUE(original.same_chain(edited));
  EXPECT_EQ(edited.nsec_rrsets(), 3u);
  EXPECT_EQ(edited.nsec3_rrsets(), 1u);
  expect_chain_counts(edited);
}

TEST(ChainStamp, EveryChainWriteDrawsAFreshStamp) {
  const Name apex = Name::of("example.com.");
  const Name www = apex.child("www");
  const dns::NsecRdata to_apex{apex, {RRType::kA, RRType::kNSEC}};
  const std::vector<std::pair<std::string, std::function<void(Zone&)>>>
      writes = {
          {"add", [&](Zone& z) {
             z.add(www, RRType::kNSEC, 3600,
                   dns::NsecRdata{apex, {RRType::kA}});
           }},
          {"put", [&](Zone& z) {
             dns::RRset nsec(www, RRType::kNSEC, 60);
             nsec.add(to_apex);
             z.put(std::move(nsec));
           }},
          {"remove",
           [&](Zone& z) { EXPECT_TRUE(z.remove(www, RRType::kNSEC)); }},
          {"remove_rdata",
           [&](Zone& z) {
             EXPECT_TRUE(z.remove_rdata(www, RRType::kNSEC, to_apex));
           }},
          {"remove_name", [&](Zone& z) { z.remove_name(www); }},
          {"find_mutable",
           [&](Zone& z) {
             ASSERT_NE(z.find_mutable(www, RRType::kNSEC), nullptr);
           }},
          {"find_mutable nsec3",
           [&](Zone& z) {
             ASSERT_NE(
                 z.find_mutable(apex.child("0p9mhaveqvm6t7vbl5lop2u3t2rp3tom"),
                                RRType::kNSEC3),
                 nullptr);
           }},
          {"apex nsec3param", [&](Zone& z) {
             z.add(apex, RRType::kNSEC3PARAM, 0,
                   dns::Nsec3ParamRdata{1, 0, 5, {}});
           }},
      };
  for (const auto& [name, write] : writes) {
    SCOPED_TRACE(name);
    {  // a clone
      const Zone original = chained_zone();
      Zone copy = original;
      write(copy);
      EXPECT_NE(copy.chain_stamp(), 0u);
      EXPECT_NE(copy.chain_stamp(), original.chain_stamp());
      EXPECT_FALSE(copy.same_chain(original));
      expect_chain_counts(copy);
      expect_chain_counts(original);
    }
    {  // a zone written in place
      Zone sole = chained_zone();
      const std::uint64_t before = sole.chain_stamp();
      write(sole);
      EXPECT_NE(sole.chain_stamp(), before);
      expect_chain_counts(sole);
    }
  }
}

TEST(ChainStamp, EmptyAndMovedFromZonesMatchNoZone) {
  const Zone empty(Name::of("example.com."));
  const Zone other_empty(Name::of("example.com."));
  EXPECT_EQ(empty.chain_stamp(), 0u);
  EXPECT_EQ(empty.nsec_rrsets() + empty.nsec3_rrsets(), 0u);
  EXPECT_FALSE(empty.same_chain(other_empty));
  EXPECT_FALSE(empty.same_chain(empty));

  Zone source = chained_zone();
  const Zone moved = std::move(source);
  EXPECT_NE(moved.chain_stamp(), 0u);
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the subject
  EXPECT_EQ(source.chain_stamp(), 0u);
  EXPECT_FALSE(source.same_chain(moved));
  EXPECT_FALSE(moved.same_chain(source));
  EXPECT_FALSE(source.same_chain(empty));
  // NOLINTEND(bugprone-use-after-move)

  // Another zone with the same records is another version.
  EXPECT_FALSE(chained_zone().same_chain(moved));
}

/// The answer records a server gives for (qname, qtype), as text.
std::vector<std::string> answer_text(const authserver::ServerFarm& farm,
                                     const std::string& server,
                                     const Name& qname, RRType qtype) {
  const auto* auth = farm.find_server(server);
  EXPECT_NE(auth, nullptr);
  std::vector<std::string> out;
  if (auth == nullptr) return out;
  for (const auto& rr : auth->query(qname, qtype).answers) {
    out.push_back(rr.to_text());
  }
  return out;
}

TEST(ZoneCopy, ServerKeepsItsVersionWhenAnotherServerIsUpdated) {
  const Name www = Name::of("www.example.com.");
  authserver::ServerFarm farm;
  Zone zone = make_zone();
  farm.host_zone({"ns1", "ns2"}, zone);
  const auto served = answer_text(farm, "ns2", www, RRType::kA);
  ASSERT_EQ(served.size(), 1u);
  ASSERT_EQ(answer_text(farm, "ns1", www, RRType::kA), served);

  dns::ARdata moved;
  moved.address = {198, 51, 100, 1};
  zone.remove(www, RRType::kA);
  zone.add(www, RRType::kA, 3600, moved);
  zone.bump_serial();
  farm.push_to_one("ns1", zone);

  const auto updated = answer_text(farm, "ns1", www, RRType::kA);
  ASSERT_EQ(updated.size(), 1u);
  EXPECT_NE(updated, served);
  EXPECT_EQ(answer_text(farm, "ns2", www, RRType::kA), served);
  EXPECT_EQ(farm.find_server("ns2")->zone_data(zone.apex())->soa()->serial,
            100u);
  EXPECT_EQ(farm.find_server("ns1")->zone_data(zone.apex())->soa()->serial,
            101u);
}

TEST(ZoneCopy, ThreadsCopyOneConstZoneAndEachMutateTheirOwn) {
  Zone built = make_zone();
  dns::ARdata a;
  for (std::uint8_t i = 0; i < 64; ++i) {
    a.address = {10, 0, 0, i};
    built.add(Name::of("h" + std::to_string(i) + ".example.com."),
              RRType::kA, 3600, a);
  }
  const Zone shared = std::move(built);
  const std::vector<std::string> pristine = zone_text(shared);

  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &results, t] {
      for (int round = 0; round < 20; ++round) {
        Zone mine = shared;
        dns::ARdata own;
        own.address = {172, 16, static_cast<std::uint8_t>(t),
                       static_cast<std::uint8_t>(round)};
        mine.add(Name::of("t" + std::to_string(t) + ".example.com."),
                 RRType::kA, 60, own);
        mine.remove_name(Name::of("h" + std::to_string(t) + ".example.com."));
        mine.bump_serial();
        // Readers of the shared version run alongside the writers.
        EXPECT_NE(shared.find(Name::of("www.example.com."), RRType::kA),
                  nullptr);
        if (round == 19) results[static_cast<std::size_t>(t)] = zone_text(mine);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(zone_text(shared), pristine);
  for (int t = 0; t < kThreads; ++t) {
    const auto& got = results[static_cast<std::size_t>(t)];
    ASSERT_EQ(got.size(), pristine.size()) << "thread " << t;
    const std::string own = "t" + std::to_string(t) + ".example.com.";
    const std::string gone = "h" + std::to_string(t) + ".example.com.";
    int owned = 0;
    for (const auto& line : got) {
      if (line.rfind(own, 0) == 0) ++owned;
      EXPECT_NE(line.rfind(gone, 0), 0u) << line;
    }
    EXPECT_EQ(owned, 1) << "thread " << t;
    ASSERT_FALSE(got.empty());
    EXPECT_NE(got.front().find(" 101 "), std::string::npos) << got.front();
  }
}

}  // namespace
}  // namespace dfx::zone
