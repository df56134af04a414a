package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dynasore/internal/gwconfig"
	"dynasore/pkg/dynasore"
)

// jsonView is the shape GET /v1/feed answered with when encoding/json
// wrote it; the feed codec must write the same bytes.
type jsonView struct {
	User    uint32   `json:"user"`
	Version uint64   `json:"version"`
	Events  [][]byte `json:"events"`
}

func toJSONView(user uint32, v dynasore.View) jsonView {
	out := jsonView{User: user, Version: v.Version, Events: v.Events}
	if out.Events == nil {
		out.Events = [][]byte{}
	}
	return out
}

// encodingJSON returns what json.Encoder writes for v.
func encodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomFeed draws a feed with the codec's edge cases: no views, nil and
// empty event lists, nil and zero-length events, events of a few hundred
// bytes, and the widest ids and versions.
func randomFeed(rng *rand.Rand) ([]uint32, []dynasore.View) {
	n := rng.Intn(9)
	users := make([]uint32, n)
	views := make([]dynasore.View, n)
	for i := range views {
		switch rng.Intn(4) {
		case 0:
			users[i] = math.MaxUint32
		case 1:
			users[i] = uint32(rng.Intn(10))
		default:
			users[i] = rng.Uint32()
		}
		switch rng.Intn(5) {
		case 0:
			views[i].Version = math.MaxUint64
		case 1:
			views[i].Version = math.MaxUint32
		case 2:
			views[i].Version = 0
		default:
			views[i].Version = rng.Uint64()
		}
		switch rng.Intn(6) {
		case 0: // nil event list
		case 1:
			views[i].Events = [][]byte{}
		default:
			views[i].Events = make([][]byte, 1+rng.Intn(12))
			for j := range views[i].Events {
				switch rng.Intn(8) {
				case 0: // nil event
				case 1:
					views[i].Events[j] = []byte{}
				default:
					e := make([]byte, rng.Intn(300))
					rng.Read(e)
					views[i].Events[j] = e
				}
			}
		}
	}
	return users, views
}

// sameViews reports whether got is want exactly, events' nil-ness
// included, with every event list and event capped at its length.
func sameViews(t *testing.T, got, want []dynasore.View) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d views, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Version != w.Version {
			t.Fatalf("view %d: version %d, want %d", i, g.Version, w.Version)
		}
		if len(g.Events) != len(w.Events) || cap(g.Events) != len(g.Events) {
			t.Fatalf("view %d: %d events (cap %d), want %d", i, len(g.Events), cap(g.Events), len(w.Events))
		}
		for j := range w.Events {
			if (g.Events[j] == nil) != (w.Events[j] == nil) || !bytes.Equal(g.Events[j], w.Events[j]) {
				t.Fatalf("view %d event %d: %q, want %q", i, j, g.Events[j], w.Events[j])
			}
			if cap(g.Events[j]) != len(g.Events[j]) {
				t.Fatalf("view %d event %d: cap %d over its length %d", i, j, cap(g.Events[j]), len(g.Events[j]))
			}
		}
	}
}

// TestFeedMatchesEncodingJSON pins the wire: over seeded random feeds,
// the appended answers of GET /v1/feed and GET /v1/feed/{user} are the
// bytes encoding/json wrote for them, fit the pre-sized buffer, and
// decodeFeed returns every id, version and event exactly.
func TestFeedMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 2500; round++ {
		users, views := randomFeed(rng)
		old := make([]jsonView, len(views))
		for i, v := range views {
			old[i] = toJSONView(users[i], v)
		}
		want := encodingJSON(t, map[string][]jsonView{"views": old})
		got := appendFeed(make([]byte, 0, feedSize(views)), users, views)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: appended\n%s\nencoding/json\n%s", round, got, want)
		}
		if len(got) > feedSize(views) {
			t.Fatalf("round %d: %d bytes over the %d-byte bound", round, len(got), feedSize(views))
		}
		for i, v := range views {
			one := append(feedBuf(nil).appendView(users[i], v), '\n')
			if w := encodingJSON(t, old[i]); !bytes.Equal(one, w) {
				t.Fatalf("round %d view %d: appended\n%s\nencoding/json\n%s", round, i, one, w)
			}
			if len(one) > viewSize(v)+1 {
				t.Fatalf("round %d view %d: %d bytes over the bound %d", round, i, len(one), viewSize(v)+1)
			}
		}

		gotUsers, gotViews, err := decodeFeed(got)
		if err != nil {
			t.Fatalf("round %d: decode: %v\n%s", round, err, got)
		}
		if len(gotUsers) != len(users) {
			t.Fatalf("round %d: %d users, want %d", round, len(gotUsers), len(users))
		}
		for i := range users {
			if gotUsers[i] != users[i] {
				t.Fatalf("round %d: user %d is %d, want %d", round, i, gotUsers[i], users[i])
			}
		}
		sameViews(t, gotViews, views)
	}
}

// TestDecodeFeedRejects feeds decodeFeed everything but the layout it
// reads: each must be an error, never a panic or a partial answer.
func TestDecodeFeedRejects(t *testing.T) {
	valid := appendFeed(nil, []uint32{7, math.MaxUint32}, []dynasore.View{
		{Version: 3, Events: [][]byte{[]byte("hi"), nil, {}}},
		{Version: math.MaxUint64},
	})
	if _, _, err := decodeFeed(valid); err != nil {
		t.Fatalf("valid answer: %v", err)
	}
	for n := 0; n < len(valid); n++ {
		if _, _, err := decodeFeed(valid[:n]); err == nil {
			t.Errorf("truncation to %d of %d bytes accepted", n, len(valid))
		}
	}
	for _, in := range []string{
		"",
		"null\n",
		`{"views":null}` + "\n",
		`{"views":[]}`,          // no newline
		`{"views":[]}` + "\n\n", // trailing bytes
		` {"views":[]}` + "\n",  // whitespace
		`{"views": []}` + "\n",  // whitespace
		`{"views":[{"user":1,"version":2,"events":["aGk\u003d"]}]}` + "\n", // escaped string
		`{"views":[{"user":1,"version":2,"events":["aGk"]}]}` + "\n",       // unpadded
		`{"views":[{"user":1,"version":2,"events":["aGl="]}]}` + "\n",      // non-zero padding bits
		`{"views":[{"user":1,"version":2,"events":["a!k="]}]}` + "\n",      // outside the alphabet
		`{"views":[{"user":1,"version":2,"events":["aG\r\nk="]}]}` + "\n",  // line break
		`{"views":[{"user":1,"version":2,"events":["aGk=` + "\n\n\n\n" + `"]}]}` + "\n",
		`{"views":[{"user":1,"version":2,"events":["aGk=]}]}` + "\n", // unterminated
		`{"views":[{"user":1,"version":2,"events":[],"extra":1}]}` + "\n",
		`{"views":[{"user":1,"version":2,"events":[]}],"more":[]}` + "\n",
		`{"views":[{"version":2,"user":1,"events":[]}]}` + "\n",
		`{"views":[{"user":1,"events":[]}]}` + "\n",
		`{"views":[{"user":1,"version":2,"events":null}]}` + "\n",
		`{"views":[{"user":1,"version":2,"events":[,]}]}` + "\n",
		`{"views":[{"user":1,"version":2,"events":["",]}]}` + "\n",
		`{"views":[{"user":1,"version":2,"events":[nul]}]}` + "\n",
		`{"views":[{"user":1,"version":2,"events":[1]}]}` + "\n",
		`{"views":[{"user":1,"version":2,"events":[]},]}` + "\n",
		`{"views":[{"user":1,"version":2,"events":[]}{"user":1,"version":2,"events":[]}]}` + "\n",
		`{"views":[{"user":4294967296,"version":2,"events":[]}]}` + "\n",
		`{"views":[{"user":1,"version":18446744073709551616,"events":[]}]}` + "\n",
		`{"views":[{"user":1,"version":99999999999999999999,"events":[]}]}` + "\n",
		`{"views":[{"user":01,"version":2,"events":[]}]}` + "\n",
		`{"views":[{"user":-1,"version":2,"events":[]}]}` + "\n",
		`{"views":[{"user":1,"version":2.0,"events":[]}]}` + "\n",
		`{"views":[{"user":1,"version":2e3,"events":[]}]}` + "\n",
		`{"views":[{"user":"1","version":2,"events":[]}]}` + "\n",
	} {
		users, views, err := decodeFeed([]byte(in))
		if err == nil {
			t.Errorf("accepted %q as %v %v", in, users, views)
		} else if !errors.Is(err, errMalformedFeed) {
			t.Errorf("%q: error %v does not wrap errMalformedFeed", in, err)
		}
	}
}

// FuzzDecodeFeed: decodeFeed never panics, and every answer it accepts
// re-encodes to the same bytes, which decode to the same views. The
// seeds stay small: the fuzzer minimizes each new input it finds, and a
// kilobytes-long one stalls a ten-second run in minimization.
func FuzzDecodeFeed(f *testing.F) {
	f.Add([]byte(`{"views":[]}` + "\n"))
	f.Add(appendFeed(nil, []uint32{1}, []dynasore.View{{Version: 2, Events: [][]byte{[]byte("hello"), nil, {}}}}))
	f.Add([]byte(`{"views":[{"user":1,"version":2,"events":["aGk=","aGk="]},{"user":0,"version":0,"events":[]}]}` + "\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		users, views, err := decodeFeed(in)
		if err != nil {
			return
		}
		again := appendFeed(nil, users, views)
		if !bytes.Equal(again, in) {
			t.Fatalf("accepted %q re-encodes as %q", in, again)
		}
		users2, views2, err := decodeFeed(again)
		if err != nil {
			t.Fatalf("re-encoded answer rejected: %v", err)
		}
		if len(users2) != len(users) {
			t.Fatalf("%d users, then %d", len(users), len(users2))
		}
		for i := range users {
			if users2[i] != users[i] {
				t.Fatalf("user %d: %d, then %d", i, users[i], users2[i])
			}
		}
		sameViews(t, views2, views)
	})
}

// fixedFeed is a 26-view feed about the size of an edge-mix read: one
// to eight 64-byte events per view.
func fixedFeed() ([]uint32, []dynasore.View) {
	users := make([]uint32, 26)
	views := make([]dynasore.View, 26)
	for i := range views {
		users[i] = uint32(1000 + 37*i)
		views[i].Version = uint64(100 + i)
		for j := 0; j <= i%8; j++ {
			views[i].Events = append(views[i].Events,
				[]byte(strings.Repeat(strconv.Itoa(i*10+j), 64)[:64]))
		}
	}
	return users, views
}

// answerTransport answers every request with one fixed 200 body, so a
// test counts the client's allocations and not a server's.
type answerTransport []byte

func (a answerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode:    http.StatusOK,
		Status:        "200 OK",
		Header:        http.Header{},
		ContentLength: int64(len(a)),
		Body:          io.NopCloser(bytes.NewReader(a)),
		Request:       req,
	}, nil
}

// TestClientReadAllocs pins Client.Read's allocations on a fixed 26-view
// answer: net/http's request, the call's context bound and the canned
// transport's own answer (about 20), then one body, one byte slab, one
// event list and the views and users. The encoding/json client took 282
// on the same answer, one or more per event; with http.Client.Timeout
// arming its own timer and cancel context per request it took 45.
func TestClientReadAllocs(t *testing.T) {
	users, views := fixedFeed()
	c := NewClient("http://gateway.invalid", "token")
	c.hc.Transport = answerTransport(appendFeed(nil, users, views))
	ctx := context.Background()
	got, err := c.Read(ctx, users)
	if err != nil {
		t.Fatal(err)
	}
	sameViews(t, got, views)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Read(ctx, users); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 26
	if allocs > bound {
		t.Errorf("Client.Read: %.0f allocs per 26-view answer, want at most %d", allocs, bound)
	}
}

// TestClientRefusesHugeAnswer: a gateway claiming a Content-Length over
// maxAnswer gets an error before the client allocates it, and an answer
// of unknown length is read only up to the cap.
func TestClientRefusesHugeAnswer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxAnswer+1))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"views":[`))
	}))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	defer func() { _ = c.Close() }()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Read(context.Background(), []uint32{1})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("Read of a %d-byte answer: %v, want the cap error", maxAnswer+1, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing the answer allocated %d bytes", grew)
	}

	const limit = 64
	if _, err := readBody(strings.NewReader(strings.Repeat("x", limit+1)), -1, limit); err == nil {
		t.Error("unknown-length answer over the cap accepted")
	}
	b, err := readBody(strings.NewReader(strings.Repeat("x", limit)), -1, limit)
	if err != nil || len(b) != limit {
		t.Errorf("unknown-length answer at the cap: %d bytes, %v", len(b), err)
	}
	if _, err := readBody(strings.NewReader("short"), 10, limit); err == nil {
		t.Error("answer shorter than its Content-Length accepted")
	}
}

// TestReadAnswersAreEncodingJSON serves both feed routes through the
// gateway and compares their bodies with what encoding/json wrote, and
// the Content-Length with the body.
func TestReadAnswersAreEncodingJSON(t *testing.T) {
	users, views := fixedFeed()
	views[3].Events = nil
	views[4].Events = [][]byte{nil, {}}
	byUser := map[uint32]dynasore.View{}
	for i, u := range users {
		byUser[u] = views[i]
	}
	store := &fakeStore{readFn: func(_ context.Context, targets []uint32) ([]dynasore.View, error) {
		out := make([]dynasore.View, len(targets))
		for i, u := range targets {
			out[i] = byUser[u]
		}
		return out, nil
	}}
	g := newTestGateway(t, store, nil)

	parts := make([]string, len(users))
	old := make([]jsonView, len(users))
	for i, u := range users {
		parts[i] = strconv.FormatUint(uint64(u), 10)
		old[i] = toJSONView(u, views[i])
	}
	for _, tc := range []struct {
		path string
		want []byte
	}{
		{"/v1/feed?users=" + strings.Join(parts, ","), encodingJSON(t, map[string][]jsonView{"views": old})},
		{"/v1/feed/" + parts[0], encodingJSON(t, old[0])},
		{"/v1/feed/" + parts[4], encodingJSON(t, old[4])},
	} {
		rec := doReq(g, http.MethodGet, tc.path, "good-token", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.path, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), tc.want) {
			t.Errorf("%s answered\n%s\nencoding/json wrote\n%s", tc.path, rec.Body, tc.want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(tc.want)) {
			t.Errorf("%s: Content-Length %q for %d bytes", tc.path, cl, len(tc.want))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.path, ct)
		}
	}
}

// BenchmarkGatewayFeedCodec is one 26-view feed read through the whole
// HTTP edge on loopback: the gateway's default middleware chain over a
// canned store encodes it, gateway.Client fetches and decodes it.
func BenchmarkGatewayFeedCodec(b *testing.B) {
	users, views := fixedFeed()
	store := &fakeStore{readFn: func(context.Context, []uint32) ([]dynasore.View, error) {
		return views, nil
	}}
	g := newTestGateway(b, store, func(cfg *gwconfig.Config) {
		cfg.RateRPS = 1e9
		cfg.RateBurst = 1e9
	})
	srv := httptest.NewServer(g)
	defer srv.Close()
	c := NewClient(srv.URL, "good-token")
	defer func() { _ = c.Close() }()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := c.Read(ctx, users)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(views) {
			b.Fatalf("%d views, want %d", len(got), len(views))
		}
	}
}
