package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// scheduleJSON is the stable on-disk form of a Schedule. The ordering wizard
// runs offline (§5: "the priority list is calculated offline before the
// execution"), so schedules are serialized once and shipped to the
// enforcement module of every sender. The format is documented field by
// field, with validation rules and a worked example, in
// docs/schedule-format.md.
type scheduleJSON struct {
	Algorithm Algorithm      `json:"algorithm"`
	Rank      map[string]int `json:"rank"`
	Order     []string       `json:"order"`
}

// WriteJSON serializes the schedule.
func (s *Schedule) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(scheduleJSON{Algorithm: s.Algorithm, Rank: s.Rank, Order: s.Order})
}

// ReadSchedule deserializes a schedule previously written by WriteJSON and
// validates its internal consistency (Order must be a permutation of Rank's
// keys). The input must hold exactly one JSON object: anything but
// whitespace after it is rejected, so a corrupt or concatenated file never
// loads as its first schedule.
func ReadSchedule(r io.Reader) (*Schedule, error) {
	var sj scheduleJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&sj); err != nil {
		return nil, fmt.Errorf("core: decode schedule: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("core: trailing data after schedule")
	}
	if len(sj.Order) != len(sj.Rank) {
		return nil, fmt.Errorf("core: schedule order has %d keys, rank has %d", len(sj.Order), len(sj.Rank))
	}
	seen := make(map[string]bool, len(sj.Order))
	for _, k := range sj.Order {
		if _, ok := sj.Rank[k]; !ok {
			return nil, fmt.Errorf("core: order key %q missing from rank", k)
		}
		if seen[k] {
			return nil, fmt.Errorf("core: duplicate order key %q", k)
		}
		seen[k] = true
	}
	if sj.Rank == nil {
		sj.Rank = map[string]int{}
	}
	return &Schedule{Algorithm: sj.Algorithm, Rank: sj.Rank, Order: sj.Order}, nil
}
