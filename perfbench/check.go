package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"dynasore/pkg/dynasore"
)

// checker verifies every output the benchmark receives. Its state is one
// floor per user: the highest version a Write acknowledged. A read must
// return, for each target, a version at or above the floor snapshotted
// before the read was sent, and every event of a view must name the view's
// user; after the run, every written user must read back exactly its last
// acknowledged version (no acknowledged write lost).
type checker struct {
	acked []atomic.Uint64

	violations atomic.Int64
	mu         sync.Mutex
	first      string // first violation, for the report
}

func newChecker(users int) *checker {
	return &checker{acked: make([]atomic.Uint64, users)}
}

// payload builds a post that names its author, padded to size bytes.
func payload(user uint32, tag int, size int) []byte {
	p := fmt.Appendf(nil, "u%d:%d:", user, tag)
	for len(p) < size {
		p = append(p, '.')
	}
	return p
}

// namesUser reports whether an event payload was authored by user.
func namesUser(ev []byte, user uint32) bool {
	var prefix [16]byte
	p := append(strconv.AppendUint(append(prefix[:0], 'u'), uint64(user), 10), ':')
	return bytes.HasPrefix(ev, p)
}

// noteAck raises user's floor to an acknowledged write's version.
func (c *checker) noteAck(user uint32, version uint64) {
	a := &c.acked[user]
	for {
		cur := a.Load()
		if version <= cur || a.CompareAndSwap(cur, version) {
			return
		}
	}
}

// floors appends the current floor of every target to dst.
func (c *checker) floors(dst []uint64, targets []uint32) []uint64 {
	for _, u := range targets {
		dst = append(dst, c.acked[u].Load())
	}
	return dst
}

// checkRead verifies one read's views against the floors snapshotted before
// it was sent, and returns how many targets were wrong.
func (c *checker) checkRead(targets []uint32, floors []uint64, views []dynasore.View) int {
	if len(views) != len(targets) {
		c.violate(fmt.Sprintf("read of %d targets returned %d views", len(targets), len(views)))
		return len(targets)
	}
	bad := 0
	for i, v := range views {
		u := targets[i]
		if v.Version < floors[i] {
			bad++
			c.violate(fmt.Sprintf("user %d read version %d after version %d was acknowledged", u, v.Version, floors[i]))
			continue
		}
		for _, ev := range v.Events {
			if !namesUser(ev, u) {
				bad++
				c.violate(fmt.Sprintf("user %d view holds an event of another user: %.24q", u, ev))
				break
			}
		}
	}
	return bad
}

// sweep reads back every user with an acknowledged write, batch users per
// Read, and returns how many do not read exactly their last acknowledged
// version — each one a lost acknowledged write (or a read error).
func (c *checker) sweep(ctx context.Context, st dynasore.Store, batch int) int {
	var users []uint32
	for u := range c.acked {
		if c.acked[u].Load() > 0 {
			users = append(users, uint32(u))
		}
	}
	bad := 0
	for start := 0; start < len(users); start += batch {
		targets := users[start:min(start+batch, len(users))]
		views, err := st.Read(ctx, targets)
		if err != nil {
			bad += len(targets)
			c.violate(fmt.Sprintf("final sweep read failed: %v", err))
			continue
		}
		if len(views) != len(targets) {
			bad += len(targets)
			c.violate(fmt.Sprintf("final sweep read of %d users returned %d views", len(targets), len(views)))
			continue
		}
		for i, v := range views {
			if want := c.acked[targets[i]].Load(); v.Version != want {
				bad++
				c.violate(fmt.Sprintf("user %d reads version %d after the run; last acknowledged write was %d", targets[i], v.Version, want))
			}
		}
	}
	return bad
}

func (c *checker) violate(msg string) {
	c.violations.Add(1)
	c.mu.Lock()
	if c.first == "" {
		c.first = msg
	}
	c.mu.Unlock()
}

// firstViolation returns the first recorded violation, or "".
func (c *checker) firstViolation() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.first
}
