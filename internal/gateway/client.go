package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"dynasore/pkg/dynasore"
)

// Client is an HTTP client for a dsgate gateway that implements
// dynasore.Store and dynasore.Admin, so the command-line tools (dsload,
// dsctl) can target the HTTP edge exactly like a broker.
type Client struct {
	base  string
	token string
	hc    *http.Client
}

// NewClient returns a client for the gateway at baseURL (e.g.
// "http://127.0.0.1:8080"). token, when non-empty, is sent as the
// bearer token on every request.
func NewClient(baseURL, token string) *Client {
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		token: token,
		hc:    &http.Client{},
	}
}

// callTimeout bounds a call whose context carries no deadline. It rides
// the context, not http.Client.Timeout: the latter makes net/http arm a
// timer and a cancel context of its own on every request, deadline or
// not.
const callTimeout = 30 * time.Second

// maxAnswer bounds the body of any gateway answer the client reads. The
// largest legitimate one is a /v1/feed answer at the gateway's read cap;
// 64 MiB is far above that and still a sane allocation.
const maxAnswer = 64 << 20

// do runs one request and returns the answer's body, read into one
// allocation. Non-2xx answers become errors quoting the gateway's error
// envelope and request ID.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, callTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("gateway client: %w", err)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("gateway client: %s %s: %w", method, path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	answer, err := readBody(resp.Body, resp.ContentLength, maxAnswer)
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		msg := resp.Status
		if err == nil && json.Unmarshal(answer, &eb) == nil && eb.Error != "" {
			msg = eb.Error
			if eb.RequestID != "" {
				msg += " (request " + eb.RequestID + ")"
			}
		}
		return nil, fmt.Errorf("gateway client: %s %s: %s: %s", method, path, resp.Status, msg)
	}
	if err != nil {
		return nil, fmt.Errorf("gateway client: %s %s: %w", method, path, err)
	}
	return answer, nil
}

// doJSON runs one request and decodes its JSON answer into out.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	answer, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(answer, out); err != nil {
		return fmt.Errorf("gateway client: decode %s %s: %w", method, path, err)
	}
	return nil
}

// readBody reads a whole answer body of n bytes into one allocation,
// refusing an n over limit before allocating anything. When n is
// unknown (-1) it reads what arrives, up to limit.
func readBody(r io.Reader, n, limit int64) ([]byte, error) {
	if n > limit {
		return nil, fmt.Errorf("answer of %d bytes is over the %d-byte cap", n, limit)
	}
	if n < 0 {
		b, err := io.ReadAll(io.LimitReader(r, limit+1))
		if err != nil {
			return nil, fmt.Errorf("read answer: %w", err)
		}
		if int64(len(b)) > limit {
			return nil, fmt.Errorf("answer is over the %d-byte cap", limit)
		}
		return b, nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, fmt.Errorf("read answer: %w", err)
	}
	return b, nil
}

// Read fetches the views of every user in targets, in order, via
// GET /v1/feed. The answer must name exactly those users, in that
// order; each view's events share one slab.
func (c *Client) Read(ctx context.Context, targets []uint32) ([]dynasore.View, error) {
	var path strings.Builder
	path.Grow(len("/v1/feed?users=") + len("4294967295,")*len(targets))
	path.WriteString("/v1/feed?users=")
	var digits [10]byte
	for i, u := range targets {
		if i > 0 {
			path.WriteByte(',')
		}
		path.Write(strconv.AppendUint(digits[:0], uint64(u), 10))
	}
	answer, err := c.do(ctx, http.MethodGet, path.String(), nil)
	if err != nil {
		return nil, err
	}
	users, views, err := decodeFeed(answer)
	if err != nil {
		return nil, fmt.Errorf("gateway client: decode GET /v1/feed: %w", err)
	}
	if len(users) != len(targets) {
		return nil, fmt.Errorf("gateway client: GET /v1/feed answered %d views for %d users", len(users), len(targets))
	}
	for i, u := range users {
		if u != targets[i] {
			return nil, fmt.Errorf("gateway client: GET /v1/feed answered user %d where %d was asked", u, targets[i])
		}
	}
	return views, nil
}

// Write appends payload to user's view via POST /v1/feed/{user} and
// returns its sequence number.
func (c *Client) Write(ctx context.Context, user uint32, payload []byte) (uint64, error) {
	if payload == nil {
		payload = []byte{}
	}
	var resp struct {
		Seq uint64 `json:"seq"`
	}
	path := "/v1/feed/" + strconv.FormatUint(uint64(user), 10)
	if err := c.doJSON(ctx, http.MethodPost, path, payload, &resp); err != nil {
		return 0, err
	}
	return resp.Seq, nil
}

// Stats returns the broker's counter snapshot via GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (dynasore.Stats, error) {
	var st dynasore.Stats
	if err := c.doJSON(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return dynasore.Stats{}, err
	}
	return st, nil
}

// Close releases the client's idle connections.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

func fromMembershipJSON(m membershipJSON) dynasore.Membership {
	out := dynasore.Membership{Epoch: m.Epoch, Servers: make([]dynasore.ServerEntry, len(m.Servers))}
	for i, s := range m.Servers {
		out.Servers[i] = dynasore.ServerEntry{
			Addr:     s.Addr,
			Pos:      dynasore.Position{Zone: s.Zone, Rack: s.Rack},
			Capacity: s.Capacity,
			State:    stateFromString(s.State),
			Replicas: s.Replicas,
		}
	}
	return out
}

// stateFromString inverts ServerState.String for the wire.
func stateFromString(s string) dynasore.ServerState {
	for _, st := range []dynasore.ServerState{dynasore.ServerActive, dynasore.ServerDraining, dynasore.ServerDead} {
		if st.String() == s {
			return st
		}
	}
	return 0
}

// Membership returns the epoch-versioned cache-server registry via
// GET /v1/servers.
func (c *Client) Membership(ctx context.Context) (dynasore.Membership, error) {
	var m membershipJSON
	if err := c.doJSON(ctx, http.MethodGet, "/v1/servers", nil, &m); err != nil {
		return dynasore.Membership{}, err
	}
	return fromMembershipJSON(m), nil
}

// AddServer admits the cache server at addr via POST /v1/servers.
func (c *Client) AddServer(ctx context.Context, addr string, pos dynasore.Position, capacity int) (dynasore.Membership, error) {
	body, err := json.Marshal(addServerRequest{Addr: addr, Zone: pos.Zone, Rack: pos.Rack, Capacity: capacity})
	if err != nil {
		return dynasore.Membership{}, fmt.Errorf("gateway client: %w", err)
	}
	var m membershipJSON
	if err := c.doJSON(ctx, http.MethodPost, "/v1/servers", body, &m); err != nil {
		return dynasore.Membership{}, err
	}
	return fromMembershipJSON(m), nil
}

// DrainServer starts decommissioning addr via
// POST /v1/servers/{addr}/drain.
func (c *Client) DrainServer(ctx context.Context, addr string) (dynasore.Membership, error) {
	var m membershipJSON
	path := "/v1/servers/" + url.PathEscape(addr) + "/drain"
	if err := c.doJSON(ctx, http.MethodPost, path, nil, &m); err != nil {
		return dynasore.Membership{}, err
	}
	return fromMembershipJSON(m), nil
}

// RemoveServer retires addr's slot via DELETE /v1/servers/{addr}.
func (c *Client) RemoveServer(ctx context.Context, addr string) (dynasore.Membership, error) {
	var m membershipJSON
	path := "/v1/servers/" + url.PathEscape(addr)
	if err := c.doJSON(ctx, http.MethodDelete, path, nil, &m); err != nil {
		return dynasore.Membership{}, err
	}
	return fromMembershipJSON(m), nil
}
