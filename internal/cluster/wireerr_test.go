package cluster

import (
	"errors"
	"fmt"
	"testing"

	"dynasore/internal/membership"
)

// The respError body is the one place error identity can die on its way to
// a client: the broker must tag sentinels with their wire code and the
// client must reattach them, so callers classify with errors.Is instead of
// matching on error text.
func TestErrorBodyRoundTripsSentinels(t *testing.T) {
	cases := []error{
		ErrNotLeader,
		ErrStaleEpoch,
		ErrReservedUser,
		ErrTooManyTargets,
		membership.ErrUnknownServer,
		membership.ErrDuplicateAddr,
		membership.ErrLastActive,
	}
	for _, sentinel := range cases {
		wrapped := fmt.Errorf("handling op: %w", sentinel)
		got := asRemoteError(errorBodyFor(wrapped))
		if !errors.Is(got, ErrRemote) {
			t.Errorf("%v: decoded error lost ErrRemote: %v", sentinel, got)
		}
		if !errors.Is(got, sentinel) {
			t.Errorf("decoded error lost its sentinel %v: %v", sentinel, got)
		}
	}
	// Joined errors keep the identity of any member — the shape Write's
	// replica-update failures travel in.
	joined := errors.Join(
		fmt.Errorf("update replica on srv-1: %w", ErrStaleEpoch),
		errors.New("update replica on srv-2: connection refused"),
	)
	if got := asRemoteError(errorBodyFor(joined)); !errors.Is(got, ErrStaleEpoch) {
		t.Errorf("joined error lost ErrStaleEpoch: %v", got)
	}
}

func TestErrorBodyPlainAndUnknownCodes(t *testing.T) {
	// Errors matching no sentinel travel as plain text.
	got := asRemoteError(errorBodyFor(errors.New("boom")))
	if !errors.Is(got, ErrRemote) || got.Error() != "cluster: remote error: boom" {
		t.Errorf("plain error = %v", got)
	}
	// A code this build does not know (a newer peer) degrades to its text.
	got = asRemoteError([]byte("!Z something new"))
	if !errors.Is(got, ErrRemote) || got.Error() != "cluster: remote error: something new" {
		t.Errorf("unknown code = %v", got)
	}
	// A message that merely starts with '!' is not mistaken for a code.
	got = asRemoteError([]byte("!! not a code"))
	if got.Error() != "cluster: remote error: !! not a code" {
		t.Errorf("bang-prefixed text = %v", got)
	}
}
