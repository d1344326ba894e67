// Unit tests: VID semantics, the VID table, and the exclusion table —
// including parameterized parse/format round-trip sweeps.
#include <gtest/gtest.h>

#include <set>

#include "mtp/vid.hpp"
#include "mtp/vid_table.hpp"
#include "sim/random.hpp"

namespace mrmtp::mtp {
namespace {

TEST(VidTest, RootAndChildDerivation) {
  Vid tor(11);
  EXPECT_EQ(tor.depth(), 1u);
  EXPECT_EQ(tor.root(), 11);
  EXPECT_EQ(tor.str(), "11");

  // Paper Fig. 2: ToR 11 port 1 -> 11.1; S1_1 port 2 -> 11.1.2.
  Vid spine = tor.child(1);
  EXPECT_EQ(spine.str(), "11.1");
  Vid top = spine.child(2);
  EXPECT_EQ(top.str(), "11.1.2");
  EXPECT_EQ(top.root(), 11);
  EXPECT_EQ(top.depth(), 3u);
}

TEST(VidTest, ParentInvertsChild) {
  Vid v = Vid::parse("11.1.2");
  EXPECT_EQ(v.parent().str(), "11.1");
  EXPECT_EQ(v.parent().parent().str(), "11");
  EXPECT_TRUE(v.parent().parent().parent().empty());
}

TEST(VidTest, PrefixEncodesAncestry) {
  Vid root = Vid::parse("11");
  Vid mid = Vid::parse("11.1");
  Vid leaf = Vid::parse("11.1.2");
  EXPECT_TRUE(root.is_prefix_of(leaf));
  EXPECT_TRUE(mid.is_prefix_of(leaf));
  EXPECT_TRUE(leaf.is_prefix_of(leaf));
  EXPECT_FALSE(leaf.is_prefix_of(mid));
  EXPECT_FALSE(Vid::parse("11.2").is_prefix_of(leaf));
  EXPECT_FALSE(Vid::parse("12").is_prefix_of(leaf));
}

TEST(VidTest, ParseRejectsMalformed) {
  EXPECT_THROW(Vid::parse(""), util::CodecError);
  EXPECT_THROW(Vid::parse("11..2"), util::CodecError);
  EXPECT_THROW(Vid::parse("11.x"), util::CodecError);
  EXPECT_THROW(Vid::parse("70000"), util::CodecError);
}

TEST(VidTest, Ordering) {
  EXPECT_LT(Vid::parse("11"), Vid::parse("11.1"));
  EXPECT_LT(Vid::parse("11.1"), Vid::parse("11.2"));
  EXPECT_LT(Vid::parse("11.9"), Vid::parse("12"));
  EXPECT_EQ(Vid::parse("11.1"), Vid(11).child(1));
}

TEST(VidTest, OrderingIsLexicographicWithPrefixFirst) {
  // std::set<Vid>/std::map<Vid, Vid> iterate in this order, and that order
  // is what JOIN_REQUEST and VID_WITHDRAW put on the wire.
  const std::vector<Vid> sorted = {Vid::parse("11"), Vid::parse("11.1"),
                                   Vid::parse("11.1.1"), Vid::parse("11.2"),
                                   Vid::parse("12")};
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    EXPECT_LT(sorted[i], sorted[i + 1]) << sorted[i].str();
    EXPECT_GT(sorted[i + 1], sorted[i]) << sorted[i].str();
  }
  std::set<Vid> set(sorted.rbegin(), sorted.rend());
  EXPECT_TRUE(std::equal(set.begin(), set.end(), sorted.begin()));
}

TEST(VidTest, HashValuesArePinned) {
  // The downward HRW pick keys on these values; a change of the Vid layout
  // must not move them (values from the FNV-1a fold over the labels).
  std::hash<Vid> h;
  EXPECT_EQ(h(Vid::parse("11")), 4953168854211428376ull);
  EXPECT_EQ(h(Vid::parse("11.1")), 11131229223519726203ull);
  EXPECT_EQ(h(Vid::parse("11.1.2")), 15318730590406912923ull);
  EXPECT_EQ(h(Vid::parse("37.4.2.1")), 3690960222858587923ull);
}

TEST(VidTest, DeeperThanMaxDepthIsMalformed) {
  for (std::uint8_t count : {std::uint8_t{9}, std::uint8_t{255}}) {
    util::BufWriter w;
    w.u8(count);
    for (int i = 0; i < count; ++i) w.u16(static_cast<std::uint16_t>(i + 1));
    auto buf = w.take();
    util::BufReader r(buf);
    EXPECT_THROW(Vid::skip_wire(r), util::CodecError)
        << "count " << int{count};
  }
  EXPECT_THROW(Vid::parse("1.2.3.4.5.6.7.8.9"), util::CodecError);
  const Vid deepest = Vid::parse("1.2.3.4.5.6.7.8");
  EXPECT_EQ(deepest.depth(), Vid::kMaxDepth);
  EXPECT_THROW((void)deepest.child(1), util::CodecError);
}

TEST(VidTest, HashDistinguishesSiblings) {
  std::hash<Vid> h;
  EXPECT_NE(h(Vid::parse("11.1")), h(Vid::parse("11.2")));
  EXPECT_NE(h(Vid::parse("11.1")), h(Vid::parse("11.1.1")));
}

TEST(VidTest, SerializeRoundTrip) {
  Vid v = Vid::parse("11.1.2");
  util::BufWriter w;
  v.serialize(w);
  EXPECT_EQ(w.size(), v.wire_size());
  auto buf = w.take();
  util::BufReader r(buf);
  Vid::skip_wire(r);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(Vid::from_wire(buf.data()), v);
}

/// Parameterized property: random VIDs round-trip through both the text and
/// the wire representation.
class VidRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VidRoundTrip, TextAndWire) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint16_t> labels;
    auto depth = static_cast<std::size_t>(rng.range(1, 8));
    for (std::size_t d = 0; d < depth; ++d) {
      labels.push_back(static_cast<std::uint16_t>(rng.below(65536)));
    }
    Vid v(labels);
    EXPECT_EQ(Vid::parse(v.str()), v);

    util::BufWriter w;
    v.serialize(w);
    auto buf = w.take();
    util::BufReader r(buf);
    Vid::skip_wire(r);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(Vid::from_wire(buf.data()), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VidRoundTrip, ::testing::Values(1, 2, 3, 4));

TEST(VidTableTest, AddIsIdempotent) {
  VidTable t;
  EXPECT_TRUE(t.add(Vid::parse("11.1"), 3));
  EXPECT_FALSE(t.add(Vid::parse("11.1"), 4));  // duplicate VID ignored
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(Vid::parse("11.1"))->port, 3u);
}

TEST(VidTableTest, RootQueries) {
  VidTable t;
  t.add(Vid::parse("11.1"), 3);
  t.add(Vid::parse("12.1"), 4);
  EXPECT_TRUE(t.has_root(11));
  EXPECT_FALSE(t.has_root(13));
  auto entries = t.entries_for_root(12);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].port, 4u);
}

TEST(VidTableTest, RemovePortPrunesBranch) {
  VidTable t;
  t.add(Vid::parse("11.1"), 3);
  t.add(Vid::parse("12.1"), 3);
  t.add(Vid::parse("13.2"), 4);
  auto removed = t.remove_port(3);
  EXPECT_EQ(removed.size(), 2u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.has_root(11));
  EXPECT_TRUE(t.has_root(13));
  EXPECT_TRUE(t.remove_port(3).empty());
}

TEST(VidTableTest, DumpMatchesListing5Format) {
  VidTable t;
  // Paper Listing 5: a 4-PoD top spine, VIDs grouped per interface.
  t.add(Vid::parse("37.1.1"), 2);
  t.add(Vid::parse("38.1.1"), 2);
  t.add(Vid::parse("39.1.1"), 4);
  t.add(Vid::parse("40.1.1"), 4);
  std::string dump = t.dump();
  EXPECT_NE(dump.find("eth2\t37.1.1, 38.1.1"), std::string::npos);
  EXPECT_NE(dump.find("eth4\t39.1.1, 40.1.1"), std::string::npos);
}

TEST(VidTableTest, MemoryGrowsWithDepthAndCount) {
  VidTable shallow;
  shallow.add(Vid::parse("11.1"), 1);
  VidTable deep;
  deep.add(Vid::parse("11.1.2.3.4.5"), 1);
  EXPECT_GT(deep.memory_bytes(), shallow.memory_bytes());
}

TEST(VidTableTest, MemoryIsTheLabelListModel) {
  // Listings 3/5 report 32 B per entry plus 2 B per label, independent of
  // the in-memory Vid layout.
  VidTable t;
  t.add(Vid::parse("11.1.2"), 1);
  t.add(Vid::parse("12.1"), 2);
  EXPECT_EQ(t.memory_bytes(), (32u + 3 * 2) + (32u + 2 * 2));
}

TEST(ExclusionTableTest, ExcludeAndClear) {
  ExclusionTable e;
  EXPECT_TRUE(e.exclude(11, 2));
  EXPECT_FALSE(e.exclude(11, 2));  // already present
  EXPECT_TRUE(e.is_excluded(11, 2));
  EXPECT_FALSE(e.is_excluded(11, 3));
  EXPECT_FALSE(e.is_excluded(12, 2));
  EXPECT_TRUE(e.clear(11, 2));
  EXPECT_FALSE(e.clear(11, 2));
  EXPECT_EQ(e.size(), 0u);
}

TEST(ExclusionTableTest, ClearPortDropsAllRoots) {
  ExclusionTable e;
  e.exclude(11, 2);
  e.exclude(12, 2);
  e.exclude(12, 3);
  e.clear_port(2);
  EXPECT_FALSE(e.is_excluded(11, 2));
  EXPECT_FALSE(e.is_excluded(12, 2));
  EXPECT_TRUE(e.is_excluded(12, 3));
  EXPECT_EQ(e.size(), 1u);
}

TEST(ExclusionTableTest, DumpListsPorts) {
  ExclusionTable e;
  e.exclude(11, 2);
  e.exclude(11, 4);
  std::string dump = e.dump();
  EXPECT_NE(dump.find("dest 11 avoid: eth2 eth4"), std::string::npos);
}

}  // namespace
}  // namespace mrmtp::mtp
