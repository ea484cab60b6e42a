package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// buildCache constructs a realistic cache container: a grouped instance
// split into two parts, a registry with pilot offsets pre-registered, and
// per-part subtree blobs produced by the worker-side executor.
func buildCache(t testing.TB) *Cache {
	t.Helper()
	in := bench.Intermingled(bench.Small(120, 7), 3, 11)
	opt := core.Options{IntraSkewBound: 2, GroupOffsets: []float64{0, 1.5, -0.25}}
	reg, err := core.NewRegistry(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	parts := [][]int{{}, {}}
	for i := range in.Sinks {
		parts[i%2] = append(parts[i%2], i)
	}
	blobs := make([][]byte, 2)
	for i, p := range parts {
		u := &WorkUnit{Kind: KindBuild, Instance: in, SinkIDs: p, Opt: opt, Registry: reg.Snapshot()}
		br, err := Execute(u)
		if err != nil {
			t.Fatal(err)
		}
		if blobs[i], err = br.Encode(); err != nil {
			t.Fatal(err)
		}
	}
	return &Cache{
		Shards:     2,
		Pilot:      true,
		Opt:        opt,
		Instance:   in,
		Parts:      parts,
		Base:       reg.Snapshot(),
		Offsets:    []float64{0, 1.5, -0.25},
		PilotSinks: 40,
		Blobs:      blobs,
	}
}

// TestCacheRoundTrip pins decode(encode(c)) == c field for field, including
// the nested (still individually sealed) shard blobs.
func TestCacheRoundTrip(t *testing.T) {
	c := buildCache(t)
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCache(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != c.Shards || got.Pilot != c.Pilot || got.PilotSinks != c.PilotSinks {
		t.Errorf("header: %d/%v/%d, want %d/%v/%d",
			got.Shards, got.Pilot, got.PilotSinks, c.Shards, c.Pilot, c.PilotSinks)
	}
	if !reflect.DeepEqual(got.Opt, c.Opt) {
		t.Errorf("options did not round-trip:\n got %+v\nwant %+v", got.Opt, c.Opt)
	}
	if !reflect.DeepEqual(got.Parts, c.Parts) {
		t.Error("partition did not round-trip")
	}
	if !reflect.DeepEqual(got.Base, c.Base) {
		t.Error("registry snapshot did not round-trip")
	}
	if !reflect.DeepEqual(got.Offsets, c.Offsets) {
		t.Errorf("offsets %v, want %v", got.Offsets, c.Offsets)
	}
	if !reflect.DeepEqual(got.Instance.Sinks, c.Instance.Sinks) {
		t.Error("instance did not round-trip")
	}
	for i := range c.Blobs {
		if _, err := DecodeResult(got.Blobs[i], got.Instance); err != nil {
			t.Errorf("blob %d no longer decodes: %v", i, err)
		}
	}
}

// TestCacheEncodeRejects covers the writer-side invariants: count
// mismatches, missing instance, out-of-range partition ids.
func TestCacheEncodeRejects(t *testing.T) {
	c := buildCache(t)
	c.Shards = 3
	if _, err := c.Encode(); err == nil {
		t.Error("shard/part count mismatch accepted")
	}
	c = buildCache(t)
	c.Instance = nil
	if _, err := c.Encode(); err == nil {
		t.Error("missing instance accepted")
	}
	c = buildCache(t)
	c.Parts[0][0] = len(c.Instance.Sinks)
	if _, err := c.Encode(); err == nil {
		t.Error("out-of-range part id accepted")
	}
}

// TestCacheDecodeRejects covers the defensive reader: truncation anywhere,
// payload corruption, a partition that is not an exact cover, and offsets
// over the wrong group count or non-finite all fail at decode — a cache
// never produces a silently wrong rebuild contract.
func TestCacheDecodeRejects(t *testing.T) {
	c := buildCache(t)
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, 16, len(data) / 2, len(data) - 1} {
		if _, err := DecodeCache(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	for _, at := range []int{4, len(data) / 3, len(data) - 9} {
		bad := append([]byte(nil), data...)
		bad[at] ^= 0x08
		if _, err := DecodeCache(bad); err == nil {
			t.Errorf("corruption at %d accepted", at)
		}
	}

	// A partition that drops a sink is rejected as an incomplete cover.
	c = buildCache(t)
	c.Parts[1] = c.Parts[1][:len(c.Parts[1])-1]
	if data, err = c.Encode(); err == nil {
		if _, err := DecodeCache(data); err == nil {
			t.Error("partition dropping a sink accepted")
		}
	}
	// Offsets over the wrong group count.
	c = buildCache(t)
	c.Offsets = []float64{0, 1}
	if data, err = c.Encode(); err == nil {
		if _, err := DecodeCache(data); err == nil {
			t.Error("offsets over wrong group count accepted")
		}
	}
	// A non-finite pilot offset.
	c = buildCache(t)
	c.Offsets[2] = math.Inf(1)
	if data, err = c.Encode(); err == nil {
		if _, err := DecodeCache(data); err == nil {
			t.Error("infinite pilot offset accepted")
		}
	}
}

// FuzzDecodeCache asserts the cache decoder's no-crash contract on resealed
// bodies, and that a cache it accepts re-encodes, decodes again and
// re-encodes to the same bytes (compared as bytes, so raw float bits such
// as a NaN offset compare exactly).
func FuzzDecodeCache(f *testing.F) {
	seed, err := buildCache(f).Encode()
	if err != nil {
		f.Fatal(err)
	}
	body := seed[:len(seed)-8]
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add([]byte("ASTC"))
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := DecodeCache(reseal(body)) // must never panic
		if err != nil {
			return
		}
		again, err := c.Encode()
		if err != nil {
			t.Fatalf("decoded cache fails to re-encode: %v", err)
		}
		c2, err := DecodeCache(again)
		if err != nil {
			t.Fatalf("re-encoded cache fails to decode: %v", err)
		}
		again2, err := c2.Encode()
		if err != nil {
			t.Fatalf("re-decoded cache fails to re-encode: %v", err)
		}
		if !bytes.Equal(again, again2) {
			t.Fatal("round-trip through re-encode diverged")
		}
	})
}
