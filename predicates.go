package stabilizer

import (
	"stabilizer/internal/predlib"
)

// Predicate builders: ready-made consistency models from the paper,
// rendered as DSL source strings for RegisterPredicate/ChangePredicate.

// TableIII returns the paper's six experiment predicates (OneRegion,
// MajorityRegions, AllRegions, OneWNode, MajorityWNodes, AllWNodes) built
// for topo, keyed by their paper names.
func TableIII(topo *Topology) map[string]string { return predlib.TableIII(topo) }

// TableIIIOrder lists the Table III predicate names in the paper's order.
func TableIIIOrder() []string { return predlib.TableIIIOrder() }

// OneRegion: stable once any WAN node in any remote region acknowledges.
func OneRegion(topo *Topology) string { return predlib.OneRegion(topo) }

// MajorityRegions: stable once a majority of remote regions acknowledge.
func MajorityRegions(topo *Topology) string { return predlib.MajorityRegions(topo) }

// AllRegions: stable once every remote region acknowledges.
func AllRegions(topo *Topology) string { return predlib.AllRegions(topo) }

// OneWNode: stable once any remote WAN node acknowledges.
func OneWNode() string { return predlib.OneWNode() }

// MajorityWNodes: stable once a majority of WAN nodes acknowledge.
func MajorityWNodes() string { return predlib.MajorityWNodes() }

// AllWNodes: stable once every remote WAN node acknowledges.
func AllWNodes() string { return predlib.AllWNodes() }

// QuorumWrite builds the §IV-B quorum write predicate over members.
func QuorumWrite(members []int, nw int) string { return predlib.QuorumWrite(members, nw) }

// QuorumRead builds the §IV-B quorum read-progress predicate.
func QuorumRead(members []int, nr int) string { return predlib.QuorumRead(members, nr) }

// ExcludeNodes waits for all remote sites except the listed ones — the
// §VI-D dynamic reconfiguration idiom.
func ExcludeNodes(excluded []int) string { return predlib.ExcludeNodes(excluded) }

// KOfRemote waits until at least k remote sites acknowledge.
func KOfRemote(k int) string { return predlib.KOfRemote(k) }

// Ladder presets for the adaptive controller (Node.StartAdaptive):
// ready-made strong→weak sequences over the Table III predicates.

// LadderWNodes: all remote WAN nodes → majority → any one.
func LadderWNodes() Ladder { return predlib.LadderWNodes() }

// LadderAllMajorityK: all remote WAN nodes → majority → any k of them.
func LadderAllMajorityK(k int) Ladder { return predlib.LadderAllMajorityK(k) }

// LadderRegions: every remote region → majority of regions → any one.
func LadderRegions(topo *Topology) Ladder { return predlib.LadderRegions(topo) }
