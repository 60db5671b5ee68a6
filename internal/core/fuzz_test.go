package core_test

import (
	"bytes"
	"maps"
	"os"
	"regexp"
	"slices"
	"testing"

	"tictac/internal/core"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/timing"
)

// jsonBlock matches the fenced JSON examples of a markdown document.
var jsonBlock = regexp.MustCompile("(?s)```json\n(.*?)```")

// FuzzReadSchedule feeds arbitrary bytes to the schedule decoder. It must
// never panic, and a schedule it accepts must survive WriteJSON and
// ReadSchedule with its algorithm, order, rank and ScheduleDigest intact.
// The seeds are the files tic, tac and fifo write for AlexNet v2 and the
// examples of docs/schedule-format.md.
func FuzzReadSchedule(f *testing.F) {
	spec, ok := model.ByName("AlexNet v2")
	if !ok {
		f.Fatal("AlexNet v2 missing from catalog")
	}
	g, err := model.BuildWorker(spec, model.Training, spec.Batch, "worker:0", nil)
	if err != nil {
		f.Fatal(err)
	}
	plat := timing.EnvG()
	for _, name := range []string{sched.TIC, sched.TAC, sched.FIFO} {
		s, err := sched.MustNew(name, 1).Order(g, &plat)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	doc, err := os.ReadFile("../../docs/schedule-format.md")
	if err != nil {
		f.Fatal(err)
	}
	examples := jsonBlock.FindAllSubmatch(doc, -1)
	if len(examples) == 0 {
		f.Fatal("docs/schedule-format.md has no JSON example")
	}
	for _, m := range examples {
		if _, err := core.ReadSchedule(bytes.NewReader(m[1])); err != nil {
			f.Fatalf("documented example rejected: %v\n%s", err, m[1])
		}
		f.Add(m[1])
	}
	f.Add([]byte(`{"algorithm":"tic","rank":{"a":0},"order":["a"]} junk`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := core.ReadSchedule(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted schedule does not encode: %v", err)
		}
		again, err := core.ReadSchedule(&buf)
		if err != nil {
			t.Fatalf("re-encoded schedule rejected: %v\n%s", err, buf.Bytes())
		}
		if again.Algorithm != s.Algorithm || !slices.Equal(again.Order, s.Order) || !maps.Equal(again.Rank, s.Rank) {
			t.Fatalf("schedule changed across re-encoding:\n%+v\n%+v", s, again)
		}
		if core.ScheduleDigest(again) != core.ScheduleDigest(s) {
			t.Fatal("ScheduleDigest changed across re-encoding")
		}
	})
}
