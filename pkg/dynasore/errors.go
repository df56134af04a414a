package dynasore

import (
	"errors"

	"dynasore/internal/cluster"
	"dynasore/internal/membership"
)

// Sentinel errors of the Store and Admin APIs. Callers classify failures
// with errors.Is — never by matching error text. The network client
// preserves identity across the wire: a broker tags the relayed error with
// a one-byte code and the client reattaches the sentinel, so
// errors.Is(err, dynasore.ErrNotLeader) holds whether the store is an
// in-process Engine or a remote cluster.
var (
	// ErrNoSuchUser reports a read of a user that has never been written.
	// The Store API itself serves such reads as empty views (a fresh user's
	// feed is legitimately empty); surfaces that need a hard miss — the
	// HTTP gateway's read-one endpoint, say — wrap it around the empty
	// result.
	ErrNoSuchUser = errors.New("dynasore: no such user")
	// ErrNotLeader rejects a membership mutation executed directly on a
	// follower broker (network clients are forwarded to the leader
	// transparently, so they see it only when no leader is reachable).
	ErrNotLeader = cluster.ErrNotLeader
	// ErrStaleEpoch marks an operation that ran under a superseded
	// membership epoch; retrying runs it under the fresh one.
	ErrStaleEpoch = cluster.ErrStaleEpoch
	// ErrNoSuchServer rejects an Admin call naming a cache-server address
	// that is not in the membership.
	ErrNoSuchServer = membership.ErrUnknownServer
	// ErrDuplicateServer rejects AddServer of an address already admitted.
	ErrDuplicateServer = membership.ErrDuplicateAddr
	// ErrLastActive rejects draining or removing the last active cache
	// server.
	ErrLastActive = membership.ErrLastActive
)
