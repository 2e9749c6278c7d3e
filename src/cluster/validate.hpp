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
  /// Checks, over the current structure, in this order:
  ///  * stale entries: every net node is alive in the graph; if one is
  ///    not, each stale entry is reported and validation stops there;
  ///  * tree well-formedness: single root, symmetric parent/child links,
  ///    depth = parent depth + 1, all net nodes reachable, tree edges are
  ///    graph edges, height() = the deepest depth reachable from the root;
  ///  * Definition-1 statuses: members/gateways hang off heads, gateways'
  ///    children are heads, members are leaves, root is a head, backbone
  ///    alternation head/gateway by even/odd depth;
  ///  * Property 1(2): no G-edge between two cluster heads; heads
  ///    dominate the net nodes;
  ///  * Time-Slot Conditions (per the active SlotPolicy): b at every
  ///    non-root backbone node, l at every pure member, u at every
  ///    non-root node, and at every non-root node an up-slot that its
  ///    parent hears (upConditionHolds);
  ///  * slot bounds, where D is the peak degree (peakDegree(), and never
  ///    less than the largest degree of a net node today): b-, l- and
  ///    u-slots <= D(D+1)/2+1 (Lemma 2(3)/Lemma 3), up-slots <= D^2+1,
  ///    and pure members carry no b-, l- or u-slot;
  ///  * root knowledge: rootMaxSlot() of each of the four families is at
  ///    least the true maximum;
  ///  * multicast relay counts == exact descendant-in-group counts.
  /// The working storage is per thread: once a thread has validated a
  /// net of this size, validating a sound net with no multicast groups
  /// allocates nothing, and several threads may validate one net that no
  /// thread mutates.
  static ValidationReport validate(const ClusterNet& net);
};

}  // namespace dsn
