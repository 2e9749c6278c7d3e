// Negative tests: the validator must actually DETECT broken structures.
// The graph is mutable from outside the ClusterNet, so structural
// properties can be invalidated after construction — exactly what a
// physical topology change without a reconfiguration pass would do.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "cluster/validate.hpp"
#include "tests/cluster/cluster_test_util.hpp"

namespace dsn {
namespace {

TEST(ValidatorNegativeTest, AdjacentHeadsAreFlagged) {
  // Build 0-1-2 (head, gw, head), then physically move the heads into
  // range of each other (add edge 0-2 post-hoc).
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  ClusterNet net(g);
  net.buildAll({0, 1, 2});
  ASSERT_TRUE(ClusterNetValidator::validate(net).ok());

  g.addEdge(0, 2);
  const auto report = ClusterNetValidator::validate(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("Property 1(2)"), std::string::npos);
  EXPECT_TRUE(report.has("head-adjacency"));
  EXPECT_EQ(report.countOf("head-adjacency"), 1u);
  EXPECT_EQ(report.nodesOf("head-adjacency"), std::vector<NodeId>{0});
}

TEST(ValidatorNegativeTest, RemovedTreeEdgeIsFlagged) {
  Graph g(2);
  g.addEdge(0, 1);
  ClusterNet net(g);
  net.buildAll({0, 1});
  g.removeEdge(0, 1);
  const auto report = ClusterNetValidator::validate(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("not a graph edge"), std::string::npos);
  EXPECT_TRUE(report.has("tree"));
}

TEST(ValidatorNegativeTest, UndominatedNodeIsFlagged) {
  // Member 2 hangs off head 0; removing that radio edge leaves 2
  // undominated (and its tree edge gone).
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(0, 2);
  ClusterNet net(g);
  net.buildAll({0, 1, 2});
  g.removeEdge(0, 2);
  const auto report = ClusterNetValidator::validate(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("not dominated"), std::string::npos);
  EXPECT_TRUE(report.has("domination"));
  const auto nodes = report.nodesOf("domination");
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes.front(), 2u);
}

TEST(ValidatorNegativeTest, SlotConditionBreakIsFlagged) {
  // Two heads share a member's neighborhood. After construction, fuse
  // the interference landscape by adding a new same-slot transmitter
  // next to the member: physically moving a backbone node into range
  // of a member can jam its only unique provider.
  auto f = testutil::randomNet(2024, 120);
  Graph& g = *f.graph;
  ClusterNet& net = *f.net;
  ASSERT_TRUE(ClusterNetValidator::validate(net).ok());

  // Find a member v with exactly one l-interferer (its head) and some
  // backbone node x elsewhere with the same l-slot; connect x to v.
  bool mutated = false;
  for (NodeId v : net.pureMembers()) {
    const auto inter = net.interferers(SlotFamily::kL, v);
    if (inter.size() != 1) continue;
    const TimeSlot slot = net.lSlot(inter.front());
    for (NodeId x : net.backboneNodes()) {
      if (x == inter.front() || g.hasEdge(x, v)) continue;
      if (net.lSlot(x) == slot && net.depth(x) != net.depth(v)) {
        g.addEdge(x, v);
        mutated = true;
        break;
      }
    }
    if (mutated) break;
  }
  if (!mutated) GTEST_SKIP() << "topology draw offered no jamming pair";

  const auto report = ClusterNetValidator::validate(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("Condition"), std::string::npos);
  EXPECT_TRUE(report.has("slot-condition"));
}

TEST(ValidatorNegativeTest, GraphCorruptionReportsArePinned) {
  // Seeded nets under both slot policies, some with multicast groups and
  // some read through a fresh CSR snapshot, are corrupted through the
  // graph alone: extra radio edges, lost radio edges, lost tree edges,
  // and last a crashed non-root node, which leaves the net stale. Every
  // report's issues (class, node, message, in order) fold into one
  // FNV-1a digest, so any change to what the validator reports, or in
  // which order, shows here.
  std::uint64_t digest = 0xcbf29ce484222325ull;
  const auto fold = [&digest](std::string_view bytes) {
    for (const char c : bytes) {
      digest ^= static_cast<unsigned char>(c);
      digest *= 0x100000001b3ull;
    }
    digest ^= 0xff;  // field separator
    digest *= 0x100000001b3ull;
  };
  std::map<std::string, std::size_t> counts;
  std::size_t reports = 0;
  std::size_t failing = 0;

  constexpr int kNets = 32;
  constexpr int kSteps = 12;
  for (int i = 0; i < kNets; ++i) {
    ClusterNetConfig cfg;
    cfg.slotPolicy =
        i % 2 == 0 ? SlotPolicy::kStrict : SlotPolicy::kPaperLocal;
    const std::size_t n = 60 + 10 * static_cast<std::size_t>(i % 8);
    auto f = testutil::randomNet(0x9E7 + static_cast<std::uint64_t>(i), n, 10,
                                 50.0, cfg);
    Graph& g = *f.graph;
    ClusterNet& net = *f.net;
    if (i % 3 == 0) {
      for (NodeId v = 0; v < n; v += 5) net.joinGroup(v, 1);
      for (NodeId v = 3; v < n; v += 7) net.joinGroup(v, 2);
    }
    const bool csr = i % 4 == 1;
    Rng rng(0xC0DE + static_cast<std::uint64_t>(i));
    const auto pick = [&rng, n] {
      return static_cast<NodeId>(rng.uniform(n));
    };
    for (int step = 0; step < kSteps; ++step) {
      if (step == kSteps - 1) {
        NodeId v = pick();
        while (v == net.root()) v = pick();
        g.removeNode(v);
      } else if (step % 3 == 0) {
        for (int e = 0; e < 3; ++e) {
          const NodeId a = pick();
          const NodeId b = pick();
          if (a != b) g.addEdge(a, b);
        }
      } else if (step % 3 == 1) {
        const NodeId v = pick();
        const auto& nbrs = g.neighbors(v);
        if (!nbrs.empty()) g.removeEdge(v, nbrs[rng.uniform(nbrs.size())]);
      } else {
        const NodeId v = pick();
        if (v != net.root()) g.removeEdge(v, net.parent(v));
      }
      if (csr) g.csrView();

      const ValidationReport report = ClusterNetValidator::validate(net);
      ++reports;
      if (!report.ok()) ++failing;
      for (const ValidationIssue& issue : report.violations) {
        fold(issue.cls);
        fold(std::to_string(issue.node));
        fold(issue.message);
        ++counts[issue.cls];
      }
      fold("end of report");
    }
  }

  // Graph edits reach these five classes; status, slot-bound,
  // root-knowledge and relay-count need record corruption the public API
  // does not offer.
  EXPECT_EQ(reports, static_cast<std::size_t>(kNets * kSteps));
  EXPECT_EQ(failing, 345u);
  const std::map<std::string, std::size_t> expected{
      {"domination", 181}, {"head-adjacency", 98}, {"slot-condition", 1594},
      {"stale-entry", 32}, {"tree", 758}};
  EXPECT_EQ(counts, expected);
  EXPECT_EQ(digest, 0x4D312CC6347B8F2Dull);
}

TEST(ValidatorNegativeTest, EmptyNetWithoutRootIsOk) {
  Graph g(3);
  ClusterNet net(g);
  EXPECT_TRUE(ClusterNetValidator::validate(net).ok());
}

}  // namespace
}  // namespace dsn
