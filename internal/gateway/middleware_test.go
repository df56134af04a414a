package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynasore/internal/gwconfig"
	"dynasore/pkg/dynasore"
)

// fakeStore is a canned dynasore.Store for middleware tests: no network,
// deterministic answers, optional per-call hooks.
type fakeStore struct {
	readFn  func(ctx context.Context, targets []uint32) ([]dynasore.View, error)
	writeFn func(ctx context.Context, user uint32, payload []byte) (uint64, error)
}

func (f *fakeStore) Read(ctx context.Context, targets []uint32) ([]dynasore.View, error) {
	if f.readFn != nil {
		return f.readFn(ctx, targets)
	}
	out := make([]dynasore.View, len(targets))
	for i := range out {
		out[i] = dynasore.View{Version: 1, Events: [][]byte{[]byte("ev")}}
	}
	return out, nil
}

func (f *fakeStore) Write(ctx context.Context, user uint32, payload []byte) (uint64, error) {
	if f.writeFn != nil {
		return f.writeFn(ctx, user, payload)
	}
	return 1, nil
}

func (f *fakeStore) Stats(ctx context.Context) (dynasore.Stats, error) {
	return dynasore.Stats{Epoch: 1}, nil
}

func (f *fakeStore) Close() error { return nil }

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestGateway builds a gateway over a fakeStore with cfg mutated by
// mutate (nil for the given base).
func newTestGateway(t testing.TB, store dynasore.Store, mutate func(*gwconfig.Config)) *Gateway {
	t.Helper()
	cfg := gwconfig.Default()
	cfg.Brokers = []string{"unused:1"}
	cfg.Tokens = []string{"good-token"}
	if mutate != nil {
		mutate(&cfg)
	}
	if store == nil {
		store = &fakeStore{}
	}
	g, err := New(cfg, store, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func doReq(g *Gateway, method, path, token string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, body)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	return rec
}

func TestAuthMiddleware(t *testing.T) {
	g := newTestGateway(t, nil, nil)
	cases := []struct {
		name   string
		path   string
		header string
		want   int
	}{
		{"no token", "/v1/feed/1", "", http.StatusUnauthorized},
		{"wrong token", "/v1/feed/1", "bad-token", http.StatusUnauthorized},
		{"good token", "/v1/feed/1", "good-token", http.StatusOK},
		{"healthz exempt", "/healthz", "", http.StatusOK},
		{"readyz exempt", "/readyz", "", http.StatusOK},
		{"metrics exempt", "/metrics", "", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doReq(g, http.MethodGet, tc.path, tc.header, nil)
			if rec.Code != tc.want {
				t.Errorf("GET %s with token %q = %d, want %d", tc.path, tc.header, rec.Code, tc.want)
			}
			if tc.want == http.StatusUnauthorized {
				if rec.Header().Get("WWW-Authenticate") == "" {
					t.Error("401 without WWW-Authenticate")
				}
				var eb errorBody
				if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil || eb.Error == "" {
					t.Errorf("401 body = %q, want the JSON error envelope", rec.Body)
				}
			}
		})
	}
	if got := g.metrics.authReject.Load(); got != 2 {
		t.Errorf("authReject counter = %d, want 2", got)
	}
}

// An unauthenticated request must be rejected before reaching the store.
func TestAuthRejectsBeforeStore(t *testing.T) {
	touched := false
	store := &fakeStore{readFn: func(ctx context.Context, targets []uint32) ([]dynasore.View, error) {
		touched = true
		return nil, nil
	}}
	g := newTestGateway(t, store, nil)
	if rec := doReq(g, http.MethodGet, "/v1/feed/1", "", nil); rec.Code != http.StatusUnauthorized {
		t.Fatalf("code = %d, want 401", rec.Code)
	}
	if touched {
		t.Error("unauthenticated request reached the store")
	}
}

func TestRateLimitMiddleware(t *testing.T) {
	g := newTestGateway(t, nil, func(c *gwconfig.Config) {
		c.RateRPS = 1
		c.RateBurst = 3
	})
	var last *httptest.ResponseRecorder
	limited := 0
	for i := 0; i < 5; i++ {
		last = doReq(g, http.MethodGet, "/v1/feed/1", "good-token", nil)
		if last.Code == http.StatusTooManyRequests {
			limited++
		}
	}
	if limited != 2 {
		t.Fatalf("429 count over 5 requests with burst 3 = %d, want 2", limited)
	}
	if ra := last.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 Retry-After = %q, want a positive seconds hint", ra)
	}
	if got := g.metrics.rateLimited.Load(); got != 2 {
		t.Errorf("rateLimited counter = %d, want 2", got)
	}
	// Probe paths are budget-exempt even when the bucket is dry.
	if rec := doReq(g, http.MethodGet, "/healthz", "", nil); rec.Code != http.StatusOK {
		t.Errorf("/healthz while rate-limited = %d, want 200", rec.Code)
	}
}

func TestRateLimiterRefillAndPrune(t *testing.T) {
	l := newRateLimiter(10, 2)
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if _, ok := l.allow("k", now); !ok {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	wait, ok := l.allow("k", now)
	if ok || wait <= 0 {
		t.Fatalf("over-burst allow = (%s, %v), want a positive wait", wait, ok)
	}
	if _, ok := l.allow("k", now.Add(150*time.Millisecond)); !ok {
		t.Error("token not refilled after 1.5 refill periods")
	}
	// After the prune horizon the bucket is forgotten (and back to full).
	if _, ok := l.allow("k", now.Add(2*time.Minute)); !ok {
		t.Error("allow after prune horizon rejected")
	}
	if len(l.buckets) != 1 {
		t.Errorf("buckets after prune = %d, want 1", len(l.buckets))
	}
}

func TestRecoverMiddleware(t *testing.T) {
	store := &fakeStore{readFn: func(ctx context.Context, targets []uint32) ([]dynasore.View, error) {
		panic("boom")
	}}
	g := newTestGateway(t, store, nil)
	rec := doReq(g, http.MethodGet, "/v1/feed/1", "good-token", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
	rid := rec.Header().Get("X-Request-Id")
	if rid == "" {
		t.Error("500 response lost the X-Request-Id header")
	}
	var eb errorBody
	if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil {
		t.Fatalf("500 body: %v", err)
	}
	if eb.RequestID != rid {
		t.Errorf("error envelope request_id = %q, header = %q; want them equal", eb.RequestID, rid)
	}
	if strings.Contains(eb.Error, "boom") {
		t.Errorf("panic value leaked to the client: %q", eb.Error)
	}
	if got := g.metrics.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	// The gateway survives: the next request works.
	if rec := doReq(g, http.MethodGet, "/healthz", "", nil); rec.Code != http.StatusOK {
		t.Errorf("request after panic = %d, want 200", rec.Code)
	}
}

func TestRequestIDMiddleware(t *testing.T) {
	g := newTestGateway(t, nil, nil)
	rec := doReq(g, http.MethodGet, "/healthz", "", nil)
	if rid := rec.Header().Get("X-Request-Id"); len(rid) != 16 {
		t.Errorf("generated X-Request-Id = %q, want 16 hex chars", rid)
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-chosen-id")
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rid := rec.Header().Get("X-Request-Id"); rid != "caller-chosen-id" {
		t.Errorf("X-Request-Id = %q, want the caller's id adopted", rid)
	}
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-Id", strings.Repeat("x", 65))
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rid := rec.Header().Get("X-Request-Id"); len(rid) != 16 {
		t.Errorf("oversized caller id was adopted: %q", rid)
	}
}

func TestTimeoutMiddleware(t *testing.T) {
	store := &fakeStore{readFn: func(ctx context.Context, targets []uint32) ([]dynasore.View, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	g := newTestGateway(t, store, func(c *gwconfig.Config) {
		c.Timeout = 20 * time.Millisecond
	})
	rec := doReq(g, http.MethodGet, "/v1/feed/1", "good-token", nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("timed-out store call answered %d, want 504", rec.Code)
	}
}

func TestChainOrderAndUnknownNames(t *testing.T) {
	cfg := gwconfig.Default()
	cfg.Brokers = []string{"unused:1"}
	cfg.Middlewares = []string{"requestid", "flux-capacitor"}
	if _, err := New(cfg, &fakeStore{}, testLogger()); err == nil ||
		!strings.Contains(err.Error(), "flux-capacitor") {
		t.Errorf("unknown middleware: err = %v, want it named", err)
	}

	// auth in the chain without tokens must refuse to start.
	cfg = gwconfig.Default()
	cfg.Brokers = []string{"unused:1"}
	if _, err := New(cfg, &fakeStore{}, testLogger()); err == nil {
		t.Error("auth without tokens accepted; the gateway would start unusable")
	}

	// The chain is config-driven: without "auth", no token is needed.
	g := newTestGateway(t, nil, func(c *gwconfig.Config) {
		c.Middlewares = []string{"requestid", "recover"}
		c.Tokens = nil
	})
	if rec := doReq(g, http.MethodGet, "/v1/feed/1", "", nil); rec.Code != http.StatusOK {
		t.Errorf("authless chain rejected the request: %d", rec.Code)
	}
}

func TestStatusOf(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrap: %w", dynasore.ErrNoSuchUser), http.StatusNotFound},
		{dynasore.ErrNoSuchServer, http.StatusNotFound},
		{dynasore.ErrDuplicateServer, http.StatusConflict},
		{dynasore.ErrLastActive, http.StatusConflict},
		{dynasore.ErrStaleEpoch, http.StatusConflict},
		{dynasore.ErrNotLeader, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("mystery"), http.StatusBadGateway},
	}
	for _, tc := range cases {
		if got := statusOf(tc.err); got != tc.want {
			t.Errorf("statusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestMetricsRendering(t *testing.T) {
	g := newTestGateway(t, nil, nil)
	doReq(g, http.MethodGet, "/v1/feed/7", "good-token", nil)
	doReq(g, http.MethodGet, "/v1/feed/7", "good-token", nil)
	doReq(g, http.MethodGet, "/v1/feed/7", "", nil) // 401

	rec := doReq(g, http.MethodGet, "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		// The 401 was rejected by the auth middleware, outside the mux: it
		// counts in auth_rejected_total, not in the per-route series.
		`dsgate_http_requests_total{route="/v1/feed/{user}",method="GET",code="200"} 2`,
		`dsgate_http_request_duration_seconds_count{route="/v1/feed/{user}"} 2`,
		`dsgate_http_request_duration_seconds_bucket{route="/v1/feed/{user}",le="+Inf"} 2`,
		`dsgate_auth_rejected_total 1`,
		// The scrape itself is the one request in flight.
		`dsgate_http_in_flight_requests 1`,
		`dsgate_store_up 1`,
		`dynasore_membership_epoch 1`,
		`dsgate_http_request_duration_seconds_bucket{route="/v1/feed/{user}",le="0.0005"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n--- scrape ---\n%s", want, body)
		}
	}
	// Histogram buckets must be cumulative: each bound's count >= the
	// previous one, ending at the series count.
	prev := int64(-1)
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, `dsgate_http_request_duration_seconds_bucket{route="/v1/feed/{user}"`) {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("non-cumulative bucket: %q after count %d", line, prev)
		}
		prev = n
	}
	if prev != 2 {
		t.Errorf("final cumulative bucket = %d, want 2", prev)
	}
}

// tickingStore is a fakeStore whose broker counters advance on every
// stats fetch, as a live cluster's do between two round trips.
type tickingStore struct {
	fakeStore
	fetches int64
}

func (s *tickingStore) fetch() (dynasore.Stats, []dynasore.BrokerStats) {
	s.fetches++
	n := s.fetches
	per := []dynasore.BrokerStats{
		{Addr: "b0:1", Stats: dynasore.Stats{Reads: 10 * n, Writes: n, Epoch: 1}},
		{Addr: "b1:1", Stats: dynasore.Stats{Reads: 20 * n, Writes: 2 * n, Epoch: 1}},
	}
	return dynasore.Stats{Reads: 30 * n, Writes: 3 * n, Epoch: 1}, per
}

func (s *tickingStore) Stats(ctx context.Context) (dynasore.Stats, error) {
	st, _ := s.fetch()
	return st, nil
}

func (s *tickingStore) StatsPerBroker(ctx context.Context) (dynasore.Stats, []dynasore.BrokerStats, error) {
	st, per := s.fetch()
	return st, per, nil
}

// One scrape asks the store once: the cluster totals and the per-broker
// series describe the same moment, so they add up.
func TestMetricsScrapeIsConsistent(t *testing.T) {
	store := &tickingStore{}
	g := newTestGateway(t, store, nil)
	rec := doReq(g, http.MethodGet, "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if store.fetches != 1 {
		t.Errorf("scrape fetched stats %d times, want 1", store.fetches)
	}
	var total, perBroker, series int64
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		var n int64
		switch {
		case strings.HasPrefix(line, "dynasore_reads_total "):
			fmt.Sscanf(strings.TrimPrefix(line, "dynasore_reads_total "), "%d", &total)
		case strings.HasPrefix(line, "dynasore_broker_ops_total{") && strings.Contains(line, `op="read"`):
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n)
			perBroker += n
			series++
		}
	}
	if series != 2 {
		t.Fatalf("got %d per-broker read series, want 2\n%s", series, rec.Body.String())
	}
	if total != perBroker {
		t.Errorf("dynasore_reads_total = %d, per-broker reads sum to %d", total, perBroker)
	}
}
