package instio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestReadRejectsNonFinite pins the boundary checks added for remote
// dispatch: NaN/Inf must die as a parse error naming the field, not as an
// empty merging region three layers down.
func TestReadRejectsNonFinite(t *testing.T) {
	cases := map[string]string{
		"inf sink x":   `{"name":"x","source_x":0,"source_y":0,"num_groups":1,"sinks":[{"x":-1e999,"y":0,"cap_ff":1,"group":0}]}`,
		"inf source":   `{"name":"x","source_x":1e999,"source_y":0,"num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0}]}`,
		"huge exp cap": `{"name":"x","source_x":0,"source_y":0,"num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1e999,"group":0}]}`,
	}
	for name, c := range cases {
		if _, err := ReadInstance(strings.NewReader(c)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Non-finite values that survive JSON parsing (encoding/json rejects
	// bare NaN/Infinity literals, but a loaded instance can still be
	// mutated) are caught on write too.
	in := bench.Small(5, 1)
	in.Sinks[2].CapFF = math.NaN()
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("NaN cap written: %v", err)
	}
	in = bench.Small(5, 1)
	in.Source.X = math.Inf(1)
	buf.Reset()
	if err := WriteInstance(&buf, in); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("Inf source written: %v", err)
	}
}

func TestReadRejectsEmptyInstance(t *testing.T) {
	_, err := ReadInstance(strings.NewReader(`{"name":"empty","num_groups":1,"sinks":[]}`))
	if err == nil || !strings.Contains(err.Error(), "no sinks") {
		t.Fatalf("empty instance: %v", err)
	}
}

// TestReadRejectsGroupCountAboveSinks pins the group-count bound on load:
// this 109-byte file used to end the process with an out-of-memory error
// while validating its group count.
func TestReadRejectsGroupCountAboveSinks(t *testing.T) {
	const huge = `{"name":"x","source_x":0,"source_y":0,"num_groups":400000000000,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0}]}`
	if _, err := ReadInstance(strings.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "NumGroups") {
		t.Fatalf("group count above the sink count: %v", err)
	}
}

func TestReadSinkIDs(t *testing.T) {
	base := `{"name":"x","source_x":0,"source_y":0,"num_groups":1,"sinks":[%s]}`
	read := func(sinks string) error {
		_, err := ReadInstance(strings.NewReader(strings.Replace(base, "%s", sinks, 1)))
		return err
	}
	if err := read(`{"id":1,"x":1,"y":0,"cap_ff":1,"group":0},{"id":0,"x":2,"y":0,"cap_ff":1,"group":0}`); err != nil {
		t.Errorf("valid permuted ids rejected: %v", err)
	}
	// Reordering: the sink with id 0 must land in slot 0.
	in, err := ReadInstance(strings.NewReader(strings.Replace(base,
		"%s", `{"id":1,"x":1,"y":0,"cap_ff":1,"group":0},{"id":0,"x":2,"y":0,"cap_ff":1,"group":0}`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if in.Sinks[0].Loc.X != 2 || in.Sinks[1].Loc.X != 1 {
		t.Errorf("sinks not reordered by id: %+v", in.Sinks)
	}
	if err := read(`{"id":0,"x":1,"y":0,"cap_ff":1,"group":0},{"id":0,"x":2,"y":0,"cap_ff":1,"group":0}`); err == nil ||
		!strings.Contains(err.Error(), "duplicate sink id") {
		t.Errorf("duplicate id: %v", err)
	}
	if err := read(`{"id":0,"x":1,"y":0,"cap_ff":1,"group":0},{"id":5,"x":2,"y":0,"cap_ff":1,"group":0}`); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range id: %v", err)
	}
	if err := read(`{"id":0,"x":1,"y":0,"cap_ff":1,"group":0},{"x":2,"y":0,"cap_ff":1,"group":0}`); err == nil ||
		!strings.Contains(err.Error(), "all-or-nothing") {
		t.Errorf("partial ids: %v", err)
	}
	if err := read(`{"id":-1,"x":1,"y":0,"cap_ff":1,"group":0},{"id":0,"x":2,"y":0,"cap_ff":1,"group":0}`); err == nil {
		t.Error("negative id accepted")
	}
}

// FuzzReadInstance asserts the loader never panics on arbitrary input, and
// that anything it accepts survives a write→read round trip unchanged —
// the property remote dispatch leans on when instances cross processes.
func FuzzReadInstance(f *testing.F) {
	var seedBuf bytes.Buffer
	if err := WriteInstance(&seedBuf, bench.Intermingled(bench.Small(12, 4), 2, 7)); err != nil {
		f.Fatal(err)
	}
	f.Add(seedBuf.String())
	f.Add(`{"name":"x","source_x":0,"source_y":0,"num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0}]}`)
	f.Add(`{"name":"x","num_groups":1,"sinks":[{"id":0,"x":null,"y":0,"cap_ff":1,"group":0}]}`)
	f.Add(`{"sinks":[{}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		in, err := ReadInstance(strings.NewReader(data)) // must never panic
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteInstance(&buf, in); err != nil {
			t.Fatalf("accepted instance fails to write: %v", err)
		}
		again, err := ReadInstance(&buf)
		if err != nil {
			t.Fatalf("written instance fails to re-read: %v", err)
		}
		if again.Name != in.Name || again.Source != in.Source || again.NumGroups != in.NumGroups ||
			len(again.Sinks) != len(in.Sinks) {
			t.Fatal("round trip changed the instance header")
		}
		for i := range in.Sinks {
			if again.Sinks[i] != in.Sinks[i] {
				t.Fatalf("round trip changed sink %d: %+v vs %+v", i, again.Sinks[i], in.Sinks[i])
			}
		}
	})
}
