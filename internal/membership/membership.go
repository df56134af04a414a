// Package membership is the epoch-versioned cache-server registry of an
// elastic DynaSoRe cluster: the paper's §3.3 "Cluster modification" made
// operational. A View names every cache-server slot the cluster has ever
// had — address, datacenter position, capacity, and a lifecycle state —
// under a monotonically increasing epoch. Slots are append-only: adding a
// server appends a slot, removing one marks its slot dead but never
// deletes it, so the server indices baked into placement tables, access
// reports, and wire frames stay valid across every epoch.
//
// User views are homed by rendezvous (highest-random-weight) hashing over
// the active slots, so an added server steals only its fair share of homes
// (≈ added/total) and a removed server's homes scatter evenly over the
// survivors — no modulo-style full reshuffle.
//
// The package is pure state: mutations return successor views and the
// codec round-trips them. The live cluster (internal/cluster) owns the
// mechanism — persisting each transition as a WAL record under
// ReservedUser, replicating it between brokers, and rebuilding its server
// connections, topology, and policy engine when a newer epoch arrives.
package membership

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ReservedUser is the user ID membership records ride under in the
// write-ahead log: each transition is appended as an ordinary durable
// event of this pseudo-user, which makes membership survive restarts,
// flow through checkpoints, and replicate between broker WALs with zero
// extra machinery. Client reads and writes of this ID are rejected.
const ReservedUser = ^uint32(0)

// State is the lifecycle state of one cache-server slot.
type State uint8

// Slot lifecycle: an active server holds replicas and receives new homes;
// a draining server stays readable while the leader migrates its replicas
// out, but receives nothing new; a dead slot is a tombstone that keeps the
// server indices of later slots stable.
const (
	StateActive State = iota + 1
	StateDraining
	StateDead
)

// String returns the operator-facing state name.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ServerInfo describes one cache-server slot: where to dial it, where it
// sits in the datacenter tree, how many views the placement policy may put
// on it, and its lifecycle state. Addr and position are immutable for the
// lifetime of the slot.
type ServerInfo struct {
	// Addr is the server's dial address.
	Addr string
	// Zone and Rack position the server in the datacenter tree (the same
	// labels as cluster.Position).
	Zone, Rack int
	// Capacity bounds how many views the policy places on this server
	// (0 = the broker's default, which may be unbounded).
	Capacity int
	// State is the slot's lifecycle state.
	State State
}

// View is one epoch of the cluster's cache-server membership.
type View struct {
	// Epoch increases by one with every accepted transition; a broker
	// installs a received view only when its epoch is newer than the one
	// it holds.
	Epoch uint64
	// Servers lists every slot, in slot-index order. Indices are stable
	// forever: slots are appended, never reordered or deleted.
	Servers []ServerInfo
}

// Errors returned by view mutations and the codec.
var (
	ErrBadView       = errors.New("membership: malformed view")
	ErrUnknownServer = errors.New("membership: no such server")
	ErrDuplicateAddr = errors.New("membership: address already in the cluster")
	ErrLastActive    = errors.New("membership: cannot retire the last active server")
	ErrBadServerInfo = errors.New("membership: invalid server info")
)

// Clone returns a deep copy of the view.
func (v View) Clone() View {
	out := View{Epoch: v.Epoch, Servers: make([]ServerInfo, len(v.Servers))}
	copy(out.Servers, v.Servers)
	return out
}

// NumActive counts the slots currently in StateActive.
func (v View) NumActive() int {
	n := 0
	for _, s := range v.Servers {
		if s.State == StateActive {
			n++
		}
	}
	return n
}

// IndexOf returns the slot index of the non-dead server with the given
// address, or -1. Dead slots are skipped: their address may have been
// re-added under a fresh slot.
func (v View) IndexOf(addr string) int {
	for i, s := range v.Servers {
		if s.State != StateDead && s.Addr == addr {
			return i
		}
	}
	return -1
}

// Validate checks the structural invariants a view received from a peer or
// recovered from the log must satisfy before it can drive a broker.
func (v View) Validate() error {
	if len(v.Servers) == 0 {
		return fmt.Errorf("%w: no server slots", ErrBadView)
	}
	seen := make(map[string]bool, len(v.Servers))
	active := 0
	for i, s := range v.Servers {
		switch s.State {
		case StateActive:
			active++
		case StateDraining, StateDead:
		default:
			return fmt.Errorf("%w: slot %d has state %d", ErrBadView, i, s.State)
		}
		if s.State == StateDead {
			continue
		}
		if s.Addr == "" {
			return fmt.Errorf("%w: slot %d has no address", ErrBadView, i)
		}
		if s.Zone < 0 || s.Rack < 0 {
			return fmt.Errorf("%w: slot %d at %d:%d", ErrBadView, i, s.Zone, s.Rack)
		}
		if seen[s.Addr] {
			return fmt.Errorf("%w: %s", ErrDuplicateAddr, s.Addr)
		}
		seen[s.Addr] = true
	}
	if active == 0 {
		return fmt.Errorf("%w: no active servers", ErrBadView)
	}
	return nil
}

// Seed builds the epoch-1 view a broker derives from its static
// configuration: every configured server active, positioned, and given the
// uniform capacity.
func Seed(servers []ServerInfo) View {
	v := View{Epoch: 1, Servers: make([]ServerInfo, len(servers))}
	copy(v.Servers, servers)
	for i := range v.Servers {
		v.Servers[i].State = StateActive
	}
	return v
}

// WithAdded returns the successor view with a fresh active slot appended
// for info. The address must not collide with a live (active or draining)
// slot; re-adding the address of a dead slot creates a new slot.
func (v View) WithAdded(info ServerInfo) (View, error) {
	if info.Addr == "" || info.Zone < 0 || info.Rack < 0 || info.Capacity < 0 {
		return View{}, fmt.Errorf("%w: %+v", ErrBadServerInfo, info)
	}
	if v.IndexOf(info.Addr) >= 0 {
		return View{}, fmt.Errorf("%w: %s", ErrDuplicateAddr, info.Addr)
	}
	out := v.Clone()
	out.Epoch++
	info.State = StateActive
	out.Servers = append(out.Servers, info)
	return out, nil
}

// WithDraining returns the successor view with addr's slot moved to
// StateDraining: still readable, no longer a home or placement target. The
// last active server cannot drain — the cluster must always have somewhere
// to home views.
func (v View) WithDraining(addr string) (View, error) {
	idx := v.IndexOf(addr)
	if idx < 0 {
		return View{}, fmt.Errorf("%w: %s", ErrUnknownServer, addr)
	}
	if v.Servers[idx].State == StateActive && v.NumActive() == 1 {
		return View{}, ErrLastActive
	}
	out := v.Clone()
	out.Epoch++
	out.Servers[idx].State = StateDraining
	return out, nil
}

// WithDead returns the successor view with addr's slot tombstoned. Any
// replicas still on the server are abandoned (brokers drop them on
// install), so the safe sequence is drain first, remove once the server's
// replica count reaches zero. The last active server cannot be removed.
func (v View) WithDead(addr string) (View, error) {
	idx := v.IndexOf(addr)
	if idx < 0 {
		return View{}, fmt.Errorf("%w: %s", ErrUnknownServer, addr)
	}
	if v.Servers[idx].State == StateActive && v.NumActive() == 1 {
		return View{}, ErrLastActive
	}
	out := v.Clone()
	out.Epoch++
	out.Servers[idx].State = StateDead
	return out, nil
}

// Home returns the slot index a user's view homes on: the active slot with
// the highest rendezvous score for the user (ties broken by the smaller
// index), or -1 for a view with no active slots. Every broker of a cluster
// computes the same home from the same view, with no coordination; when
// the active set changes, only the users whose top-scoring slot changed
// move — the fair share, not a full reshuffle.
func (v View) Home(user uint32) int {
	best, bestScore := -1, uint64(0)
	for i, s := range v.Servers {
		if s.State != StateActive {
			continue
		}
		if score := hrwScore(user, i); best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// hrwScore mixes a user and a slot index into the slot's rendezvous score
// for that user (a murmur3-style finalizer: every input bit diffuses into
// every output bit, so per-user slot rankings are independent).
func hrwScore(user uint32, slot int) uint64 {
	x := uint64(user) | uint64(slot+1)<<32
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// maxServers bounds the slot count a decoded view may claim, so a corrupt
// or hostile count can never drive allocation.
const maxServers = 1 << 16

// maxAddrLen bounds one slot's address length on the wire.
const maxAddrLen = 1 << 10

// AppendView appends the view's wire form to buf:
//
//	u64 epoch | u16 n | n × { u8 state | u32 capacity | u32 zone |
//	                          u32 rack | u16 addrLen | addr }
//
// The same bytes serve as the WAL record payload under ReservedUser
// (replicated to peers as an ordinary log record) and the prefix of a
// broker's answer to a membership request.
func AppendView(buf []byte, v View) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, v.Epoch)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(v.Servers)))
	for _, s := range v.Servers {
		buf = append(buf, uint8(s.State))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Capacity))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Zone))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Rack))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Addr)))
		buf = append(buf, s.Addr...)
	}
	return buf
}

// DecodeView parses a view and returns the remaining bytes. Counts and
// lengths are validated against the bytes actually present before any
// allocation.
func DecodeView(b []byte) (View, []byte, error) {
	if len(b) < 10 {
		return View{}, nil, ErrBadView
	}
	v := View{Epoch: binary.LittleEndian.Uint64(b[0:8])}
	n := int(binary.LittleEndian.Uint16(b[8:10]))
	b = b[10:]
	// Each slot is at least 15 bytes (empty address).
	if n > maxServers || n*15 > len(b) {
		return View{}, nil, ErrBadView
	}
	v.Servers = make([]ServerInfo, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 15 {
			return View{}, nil, ErrBadView
		}
		s := ServerInfo{
			State:    State(b[0]),
			Capacity: int(binary.LittleEndian.Uint32(b[1:5])),
			Zone:     int(binary.LittleEndian.Uint32(b[5:9])),
			Rack:     int(binary.LittleEndian.Uint32(b[9:13])),
		}
		alen := int(binary.LittleEndian.Uint16(b[13:15]))
		b = b[15:]
		if alen > maxAddrLen || len(b) < alen {
			return View{}, nil, ErrBadView
		}
		s.Addr = string(b[:alen])
		b = b[alen:]
		v.Servers = append(v.Servers, s)
	}
	return v, b, nil
}

// AppendServerInfo appends one slot's wire form to buf — the body of an
// opServerAdd request: u32 capacity | u32 zone | u32 rack | u16 addrLen |
// addr.
func AppendServerInfo(buf []byte, s ServerInfo) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Capacity))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Zone))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Rack))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Addr)))
	return append(buf, s.Addr...)
}

// DecodeServerInfo parses an opServerAdd body.
func DecodeServerInfo(b []byte) (ServerInfo, error) {
	if len(b) < 14 {
		return ServerInfo{}, ErrBadServerInfo
	}
	s := ServerInfo{
		Capacity: int(binary.LittleEndian.Uint32(b[0:4])),
		Zone:     int(binary.LittleEndian.Uint32(b[4:8])),
		Rack:     int(binary.LittleEndian.Uint32(b[8:12])),
		State:    StateActive,
	}
	alen := int(binary.LittleEndian.Uint16(b[12:14]))
	if alen > maxAddrLen || len(b) < 14+alen {
		return ServerInfo{}, ErrBadServerInfo
	}
	s.Addr = string(b[14 : 14+alen])
	return s, nil
}
