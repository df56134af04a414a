package lint

import "testing"

func TestCodecPair(t *testing.T) {
	got := runFixture(t, CodecPair, "codecpair")
	requireTruePositives(t, got, 3)
}
