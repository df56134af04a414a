package main

import "dynasore/internal/cluster"

// level is the highest switch a transfer between two positions crosses in
// the datacenter tree: the rack switch, a zone (intermediate) switch, or the
// top switch.
type level int

const (
	levelRack level = iota
	levelZone
	levelTop
)

func (l level) String() string {
	switch l {
	case levelRack:
		return "rack"
	case levelZone:
		return "zone"
	default:
		return "top"
	}
}

// classify returns the switch level a transfer between a and b crosses.
func classify(a, b cluster.Position) level {
	switch {
	case a.Zone != b.Zone:
		return levelTop
	case a.Rack != b.Rack:
		return levelZone
	default:
		return levelRack
	}
}

// frontEnd is the rack shared by the load generator, every broker and the
// gateway.
var frontEnd = cluster.Position{Zone: 0, Rack: 0}

// serverLayout places the four cache servers: one in the front-end rack, one
// in another rack of the same zone, two in a second zone.
var serverLayout = []cluster.Position{
	{Zone: 0, Rack: 0},
	{Zone: 0, Rack: 1},
	{Zone: 1, Rack: 0},
	{Zone: 1, Rack: 1},
}
