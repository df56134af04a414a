package main

import (
	"bytes"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynasore/internal/gateway"
	"dynasore/internal/gwconfig"
	"dynasore/internal/socialgraph"
	"dynasore/pkg/dynasore"
)

// TestValidateArgs is the table over every rejected and accepted flag
// combination. A rejected combination is what makes `dsload -scenario
// no-such-thing` exit non-zero: main turns any dispatch error into
// os.Exit(1).
func TestValidateArgs(t *testing.T) {
	base := options{users: 1000, workers: 8, writeFrac: 0.2, opsScale: 1, duration: time.Second}
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string // substring; empty means valid
	}{
		{"selfhost ok", func(o *options) { o.selfhost = true }, ""},
		{"brokers ok", func(o *options) { o.brokers = "127.0.0.1:7000" }, ""},
		{"scenario ok", func(o *options) { o.scenario = "rolling-upgrade" }, ""},
		{"scenario list ok", func(o *options) { o.scenario = "list" }, ""},
		{"no target", func(o *options) {}, "need -brokers, -selfhost, -gateway, or -scenario"},
		{"unknown scenario", func(o *options) { o.scenario = "no-such-timeline" }, "unknown scenario"},
		{"scenario plus selfhost", func(o *options) { o.scenario = "flash-crowd"; o.selfhost = true }, "boots its own rig"},
		{"scenario plus brokers", func(o *options) { o.scenario = "flash-crowd"; o.brokers = "x:1" }, "boots its own rig"},
		{"gateway ok", func(o *options) { o.gateway = "http://127.0.0.1:8080" }, ""},
		{"gateway plus brokers", func(o *options) { o.gateway = "http://x"; o.brokers = "x:1" }, "drives the HTTP edge"},
		{"gateway plus selfhost", func(o *options) { o.gateway = "http://x"; o.selfhost = true }, "drives the HTTP edge"},
		{"gateway plus direct", func(o *options) { o.gateway = "http://x"; o.direct = true }, "-direct is a cluster-client option"},
		{"gateway plus scenario", func(o *options) { o.scenario = "flash-crowd"; o.gateway = "http://x" }, "boots its own rig"},
		{"zero users", func(o *options) { o.selfhost = true; o.users = 0 }, "-users must be positive"},
		{"zero workers", func(o *options) { o.selfhost = true; o.workers = 0 }, "-workers must be positive"},
		{"write frac over 1", func(o *options) { o.selfhost = true; o.writeFrac = 1.5 }, "-write-frac"},
		{"negative ops scale", func(o *options) { o.scenario = "flash-crowd"; o.opsScale = -1 }, "-ops-scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			tc.mutate(&o)
			err := validate(o)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", o, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate(%+v) = %v, want error containing %q", o, err, tc.wantErr)
			}
		})
	}
}

func TestDispatchUnknownScenarioNamesTheOptions(t *testing.T) {
	var out, errw bytes.Buffer
	err := dispatch(options{users: 1, workers: 1, opsScale: 1, scenario: "nope"}, &out, &errw)
	if err == nil {
		t.Fatal("dispatch accepted an unknown scenario")
	}
	// The error the operator sees must list what IS available.
	if !strings.Contains(err.Error(), "nope") || !strings.Contains(err.Error(), "rolling-upgrade") {
		t.Errorf("unknown-scenario error unhelpful: %v", err)
	}
}

func TestDispatchScenarioList(t *testing.T) {
	var out, errw bytes.Buffer
	if err := dispatch(options{users: 1, workers: 1, opsScale: 1, scenario: "list"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flash-crowd", "diurnal-shift", "rolling-upgrade", "broker-crash-rebalance"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("scenario list missing %q: %q", want, out.String())
		}
	}
}

// TestDispatchRunsScenario drives one real (shrunken) timeline through the
// exact path `dsload -scenario` uses and checks the artifact contract:
// benchmark lines on stdout, narration on stderr.
func TestDispatchRunsScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real cluster; skipped in -short mode")
	}
	var out, errw bytes.Buffer
	o := options{users: 400, usersSet: true, workers: 4, opsScale: 0.25, scenario: "diurnal-shift", seed: 11}
	if err := dispatch(o, &out, &errw); err != nil {
		t.Fatalf("dispatch: %v\nstderr:\n%s", err, errw.String())
	}
	if !strings.Contains(out.String(), "BenchmarkScenarioDiurnalShiftFeedRead") {
		t.Errorf("stdout missing the scenario bench line: %q", out.String())
	}
	if !strings.Contains(errw.String(), "scenario diurnal-shift passed") {
		t.Errorf("stderr missing the outcome summary: %q", errw.String())
	}
}

func TestBenchLineParsesLikeGoBench(t *testing.T) {
	line := benchLine("BenchmarkDSLoadFeedRead", 1500, 3_000_000_000)
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[0] != "BenchmarkDSLoadFeedRead" ||
		fields[1] != "1500" || fields[3] != "ns/op" {
		t.Fatalf("bench line = %q (fields %v)", line, fields)
	}
	if fields[2] != "2000000.0" {
		t.Errorf("ns/op = %s, want 2000000.0", fields[2])
	}
}

func TestFeedTargetsCapAndFallback(t *testing.T) {
	g, err := socialgraph.Twitter(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumUsers(); u++ {
		targets := feedTargets(g, uint32(u), 8)
		if len(targets) == 0 {
			t.Fatalf("user %d got an empty target list", u)
		}
		if len(targets) > 8 {
			t.Fatalf("user %d got %d targets, cap is 8", u, len(targets))
		}
	}
	// An isolated user reads their own view.
	gg, err := socialgraph.LoadEdgeList(strings.NewReader(""), "empty", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := feedTargets(gg, 2, 8); len(got) != 1 || got[0] != 2 {
		t.Fatalf("isolated user targets = %v, want [2]", got)
	}
}

// The -gateway mode drives a real dsgate surface end to end and reports
// under the gateway bench names — the series BENCH.json archives.
func TestRunGatewayMode(t *testing.T) {
	if testing.Short() {
		t.Skip("boots an in-process cluster")
	}
	e, err := dynasore.Open(dynasore.EngineConfig{CacheServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cfg := gwconfig.Default()
	cfg.Selfhost = true
	cfg.Tokens = []string{"load-token"}
	cfg.RateRPS = 1e6
	cfg.RateBurst = 1e6
	gw, err := gateway.New(cfg, e, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	defer srv.Close()

	var out, errw bytes.Buffer
	o := options{
		gateway:   srv.URL,
		token:     "load-token",
		users:     50,
		graph:     "twitter",
		seed:      1,
		duration:  200 * time.Millisecond,
		workers:   4,
		writeFrac: 0.2,
		readCap:   8,
		opsScale:  1,
	}
	if err := dispatch(o, &out, &errw); err != nil {
		t.Fatalf("gateway-mode run: %v\nstderr:\n%s", err, errw.String())
	}
	if !strings.Contains(out.String(), "BenchmarkGatewayRead") {
		t.Errorf("stdout missing BenchmarkGatewayRead line:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "dsload:") {
		t.Errorf("stderr missing the human summary:\n%s", errw.String())
	}
}
