// Whole-structure invariant validation.
//
// Every property the paper states (or that the implementation relies on)
// is checked here against the raw knowledge records. The property-based
// tests run this after construction and after every reconfiguration; the
// examples can run it in debug sessions; the fuzz harness (src/testkit)
// asserts on violation *classes*, so the report is structured: every
// broken invariant yields a ValidationIssue carrying a stable class tag
// and the offending node id, not just prose.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cluster/cnet.hpp"

namespace dsn {

/// One broken invariant. `cls` is a stable kebab-case tag naming the
/// invariant family (see ValidationReport for the vocabulary); `node` is
/// the primary offender (kInvalidNode for whole-structure violations).
struct ValidationIssue {
  std::string cls;
  NodeId node = kInvalidNode;
  std::string message;
};

/// Structured validation outcome.
///
/// Violation classes emitted by ClusterNetValidator:
///   "empty-net"        net empty but root still set
///   "stale-entry"      net references a graph-dead node (crash, §10)
///   "tree"             root/parent/child/depth/height/reachability
///   "status"           Definition-1 status rules + backbone alternation
///   "head-adjacency"   Property 1(2): two heads adjacent in G
///   "domination"       a net node with no cluster-head neighbor
///   "slot-condition"   a Time-Slot Condition (b/l/u/up) fails
///   "slot-bound"       a slot exceeds its Lemma 2/3 magnitude bound
///   "root-knowledge"   root's window knowledge below the true maxima
///   "relay-count"      multicast relay counts vs exact recount
struct ValidationReport {
  std::vector<ValidationIssue> violations;

  bool ok() const { return violations.empty(); }
  /// All violation messages joined with newlines ("" when ok).
  std::string summary() const;
  /// True when some violation carries class `cls`.
  bool has(std::string_view cls) const;
  /// Number of violations of class `cls`.
  std::size_t countOf(std::string_view cls) const;
  /// Offending node ids of class `cls`, in report order (may repeat).
  std::vector<NodeId> nodesOf(std::string_view cls) const;
};

class ClusterNetValidator {
 public:
  /// Checks, over the current structure:
  ///  * tree well-formedness: single root, symmetric parent/child links,
  ///    depth = parent depth + 1, all net nodes reachable, tree edges are
  ///    graph edges, height() = the deepest depth reachable from the root;
  ///  * Definition-1 statuses: members/gateways hang off heads, gateways'
  ///    children are heads, members are leaves, root is a head, backbone
  ///    alternation head/gateway by even/odd depth;
  ///  * Property 1(2): no G-edge between two cluster heads; heads
  ///    dominate the net nodes;
  ///  * Time-Slot Conditions (per the active SlotPolicy) for every
  ///    backbone non-root (b) and every pure member (l);
  ///  * Lemma 2(3)/Lemma 3 slot bounds: b <= d(d+1)/2+1, l <= D(D+1)/2+1;
  ///  * root knowledge: rootMaxB/LSlot >= the true maxima;
  ///  * multicast relay counts == exact descendant-in-group counts.
  static ValidationReport validate(const ClusterNet& net);
};

}  // namespace dsn
