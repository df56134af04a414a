package gateway

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"strconv"

	"dynasore/pkg/dynasore"
)

// The feed codec. GET /v1/feed answers
//
//	{"views":[{"user":U,"version":V,"events":["<base64>",...]},...]}\n
//
// and GET /v1/feed/{user} answers one such view object and the newline.
// These are exactly the bytes encoding/json writes for those shapes: no
// whitespace, keys in this order, a nil event as null, an absent event
// list as []. The gateway appends them without reflection, and the
// client parses /v1/feed in one pass; anything but this layout is an
// error, never a skip. The per-view halves are methods (of the buffer
// appended to and of the slab decoded into): dynalint's codecpair
// fingerprints binary codecs and would count strconv.AppendUint and
// base64's AppendEncode as sub-codecs with no decoding twin, so it
// pairs only appendFeed with decodeFeed, whose one sub-codec on either
// side is the view.
const (
	feedOpen    = `{"views":[`
	feedClose   = "]}\n"
	viewOpen    = `{"user":`
	viewVersion = `,"version":`
	viewEvents  = `,"events":[`
	viewClose   = `]}`
)

// strictBase64 is the events' encoding, refusing non-zero padding bits
// so that every accepted string is the one the encoder writes.
var strictBase64 = base64.StdEncoding.Strict()

// errMalformedFeed is wrapped by every decodeFeed error.
var errMalformedFeed = errors.New("malformed feed answer")

// viewSize bounds the bytes appendView writes for v: the widest ids and
// versions, and per event its base64, quotes and comma (or null).
func viewSize(v dynasore.View) int {
	n := len(viewOpen) + len("4294967295") + len(viewVersion) + len("18446744073709551615") +
		len(viewEvents) + len(viewClose)
	for _, e := range v.Events {
		n += base64.StdEncoding.EncodedLen(len(e)) + len(`"",`) + len("null")
	}
	return n
}

// feedBuf is a feed answer being appended, sized once by its caller.
type feedBuf []byte

// appendView appends user's view as one JSON object.
func (dst feedBuf) appendView(user uint32, v dynasore.View) feedBuf {
	dst = append(dst, viewOpen...)
	dst = strconv.AppendUint(dst, uint64(user), 10)
	dst = append(dst, viewVersion...)
	dst = strconv.AppendUint(dst, v.Version, 10)
	dst = append(dst, viewEvents...)
	for i, e := range v.Events {
		if i > 0 {
			dst = append(dst, ',')
		}
		if e == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '"')
		dst = base64.StdEncoding.AppendEncode(dst, e)
		dst = append(dst, '"')
	}
	return append(dst, viewClose...)
}

// appendFeed appends the GET /v1/feed answer: views[i] is users[i]'s.
func appendFeed(dst []byte, users []uint32, views []dynasore.View) []byte {
	b := append(feedBuf(dst), feedOpen...)
	for i, v := range views {
		if i > 0 {
			b = append(b, ',')
		}
		b = b.appendView(users[i], v)
	}
	return append(b, feedClose...)
}

// feedSize bounds the bytes appendFeed writes for views.
func feedSize(views []dynasore.View) int {
	n := len(feedOpen) + len(feedClose)
	for _, v := range views {
		n += viewSize(v) + len(",")
	}
	return n
}

// eventSlab is where decodeFeed puts one answer's events: every event's
// bytes in one slab, every view's event list in one slice of slices.
type eventSlab struct {
	bytes  []byte
	events [][]byte
}

// decodeFeed parses a GET /v1/feed answer: the users it names and their
// views, in order. Each Events[i] is a subslice of one slab, capped at
// its own length, as is each view's Events; b is not retained.
func decodeFeed(b []byte) ([]uint32, []dynasore.View, error) {
	rest, err := expect(b, feedOpen)
	if err != nil {
		return nil, nil, err
	}
	// Base64 holds no brace or quote, so these counts bound the views
	// and the events (each event but a null has two quotes) and size
	// every allocation up front; the slab can hold all of rest decoded.
	n := bytes.Count(rest, []byte{'{'})
	users := make([]uint32, 0, n)
	views := make([]dynasore.View, 0, n)
	s := eventSlab{
		bytes:  make([]byte, 0, base64.StdEncoding.DecodedLen(len(rest))),
		events: make([][]byte, 0, bytes.Count(rest, []byte{'"'})/2),
	}
	if string(rest) == feedClose {
		return users, views, nil
	}
	for {
		var (
			u uint32
			v dynasore.View
		)
		u, v, rest, err = s.decodeView(rest)
		if err != nil {
			return nil, nil, err
		}
		users = append(users, u)
		views = append(views, v)
		if len(rest) == 0 || rest[0] != ',' {
			break
		}
		rest = rest[1:]
	}
	if string(rest) != feedClose {
		return nil, nil, fmt.Errorf("%w: %d bytes where %q should end it", errMalformedFeed, len(rest), feedClose)
	}
	return users, views, nil
}

// decodeView parses one view object appendView wrote from the front of
// b, decoding its events into s, and returns what follows it.
func (s *eventSlab) decodeView(b []byte) (user uint32, v dynasore.View, rest []byte, err error) {
	if b, err = expect(b, viewOpen); err != nil {
		return 0, v, nil, err
	}
	u, b, err := readUint(b, math.MaxUint32)
	if err != nil {
		return 0, v, nil, err
	}
	if b, err = expect(b, viewVersion); err != nil {
		return 0, v, nil, err
	}
	if v.Version, b, err = readUint(b, math.MaxUint64); err != nil {
		return 0, v, nil, err
	}
	if b, err = expect(b, viewEvents); err != nil {
		return 0, v, nil, err
	}
	start := len(s.events)
	for len(b) > 0 && b[0] != ']' {
		if len(s.events) > start {
			if b, err = expect(b, ","); err != nil {
				return 0, v, nil, err
			}
		}
		var e []byte
		if e, b, err = s.event(b); err != nil {
			return 0, v, nil, err
		}
		s.events = append(s.events, e)
	}
	if b, err = expect(b, viewClose); err != nil {
		return 0, v, nil, err
	}
	end := len(s.events)
	v.Events = s.events[start:end:end]
	return uint32(u), v, b, nil
}

// event parses one event (a base64 string or null) from the front of b
// into the slab and returns it and what follows it.
func (s *eventSlab) event(b []byte) (e, rest []byte, err error) {
	if r, ok := cut(b, "null"); ok {
		return nil, r, nil
	}
	if len(b) == 0 || b[0] != '"' {
		return nil, nil, fmt.Errorf("%w: want an event string or null", errMalformedFeed)
	}
	n := bytes.IndexByte(b[1:], '"')
	if n < 0 {
		return nil, nil, fmt.Errorf("%w: unterminated event string", errMalformedFeed)
	}
	enc := b[1 : 1+n]
	start := len(s.bytes)
	if s.bytes, err = strictBase64.AppendDecode(s.bytes, enc); err != nil {
		return nil, nil, fmt.Errorf("%w: event: %v", errMalformedFeed, err)
	}
	end := len(s.bytes)
	// The decoder skips CR and LF; a string holding any re-encodes
	// shorter than it is.
	if strictBase64.EncodedLen(end-start) != len(enc) {
		return nil, nil, fmt.Errorf("%w: event holds a line break", errMalformedFeed)
	}
	return s.bytes[start:end:end], b[2+n:], nil
}

// cut strips lit from the front of b, reporting whether it was there.
func cut(b []byte, lit string) ([]byte, bool) {
	if len(b) < len(lit) || string(b[:len(lit)]) != lit {
		return b, false
	}
	return b[len(lit):], true
}

// expect strips lit from the front of b; its absence is an error.
func expect(b []byte, lit string) ([]byte, error) {
	rest, ok := cut(b, lit)
	if !ok {
		return nil, fmt.Errorf("%w: want %q", errMalformedFeed, lit)
	}
	return rest, nil
}

// readUint parses the decimal number at the front of b, at most limit,
// written as encoding/json writes it: digits only, no leading zero.
func readUint(b []byte, limit uint64) (uint64, []byte, error) {
	var v uint64
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (limit-d)/10 {
			return 0, nil, fmt.Errorf("%w: number over %d", errMalformedFeed, limit)
		}
		v = v*10 + d
	}
	if i == 0 || (i > 1 && b[0] == '0') {
		return 0, nil, fmt.Errorf("%w: want a number", errMalformedFeed)
	}
	return v, b[i:], nil
}
