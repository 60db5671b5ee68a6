package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadWorkload feeds arbitrary bytes to the trace decoder. It must
// never panic, and a workload it accepts must survive WriteWorkload and
// ReadWorkload with equal events and the same distinct-key count. The
// seeds are small on purpose: the committed traces are large enough to
// stall the mutator.
func FuzzReadWorkload(f *testing.F) {
	w, err := Generate(GeneratorSpec{Kind: GenZipf, Seed: 1, Events: 5, Configs: 3})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, w); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version": 1, "name": "hand", "events": [
		{"t": 0, "model": "AlexNet v2", "workers": 2, "ps": 1, "policy": "tic", "seed": 1, "cost": 100},
		{"t": 0.5, "model": "AlexNet v2", "workers": 2, "ps": 1, "policy": "tic", "seed": 1, "cost": 100},
		{"t": 2, "model": "VGG-16"}
	]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := ReadWorkload(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteWorkload(&out, w); err != nil {
			t.Fatalf("accepted workload does not write: %v", err)
		}
		back, err := ReadWorkload(&out)
		if err != nil {
			t.Fatalf("written workload does not read back: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back.Events, w.Events) || back.DistinctKeys() != w.DistinctKeys() {
			t.Fatalf("round trip changed the workload:\n got %+v\nwant %+v", back.Events, w.Events)
		}
	})
}
