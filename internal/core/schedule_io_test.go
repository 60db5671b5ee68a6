package core

import (
	"bytes"
	"strings"
	"testing"

	"tictac/internal/timing"
)

func TestScheduleJSONRoundTrip(t *testing.T) {
	g := figure4b()
	orig, err := TAC(g, timing.EnvG().Oracle())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != orig.Algorithm {
		t.Fatalf("algorithm = %s", got.Algorithm)
	}
	if len(got.Order) != len(orig.Order) {
		t.Fatalf("order = %v", got.Order)
	}
	for i := range orig.Order {
		if got.Order[i] != orig.Order[i] {
			t.Fatalf("order[%d] = %s, want %s", i, got.Order[i], orig.Order[i])
		}
	}
	for k, v := range orig.Rank {
		if got.Rank[k] != v {
			t.Fatalf("rank[%s] = %d, want %d", k, got.Rank[k], v)
		}
	}
	// Position works on a deserialized schedule.
	if pos, ok := got.Position(g.Op("recvA")); !ok || pos != orig.Rank["recvA"] {
		t.Fatalf("position = %d, %v", pos, ok)
	}
}

func TestReadScheduleRejectsCorruption(t *testing.T) {
	cases := []string{
		`{`, // truncated
		`{"algorithm":"tic","rank":{"a":0},"order":["a","b"]}`,       // order/rank size mismatch
		`{"algorithm":"tic","rank":{"a":0,"b":1},"order":["a","a"]}`, // duplicate
		`{"algorithm":"tic","rank":{"a":0,"c":1},"order":["a","b"]}`, // unknown key
		`{"algorithm":"tic","rank":{"a":0},"order":["a"]} junk`,      // trailing junk
		`{"algorithm":"tic","rank":{"a":0},"order":["a"]}` +
			`{"algorithm":"fifo","rank":{"b":0},"order":["b"]}`, // two schedules
		`{"algorithm":"tic","rank":{"a":0},"order":["a"]} ]`, // stray closer
	}
	for _, c := range cases {
		if _, err := ReadSchedule(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted corrupt schedule: %s", c)
		}
	}
}

func TestReadScheduleEmpty(t *testing.T) {
	s, err := ReadSchedule(strings.NewReader(`{"algorithm":"tic","rank":{},"order":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Order) != 0 || s.Rank == nil {
		t.Fatalf("empty schedule = %+v", s)
	}
}

// TestReadScheduleAcceptsWhitespaceAndUnknownFields keeps what
// docs/schedule-format.md promises readers: trailing whitespace (every
// WriteJSON output ends in a newline) and unknown top-level fields load.
func TestReadScheduleAcceptsWhitespaceAndUnknownFields(t *testing.T) {
	s, err := ReadSchedule(strings.NewReader(`{"algorithm":"tic","rank":{"a":0},"order":["a"],"version":2}` + " \n\t\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Order) != 1 || s.Order[0] != "a" || s.Rank["a"] != 0 {
		t.Fatalf("schedule = %+v", s)
	}
}
