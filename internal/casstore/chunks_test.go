package casstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"faasnap/internal/core"
	"faasnap/internal/snapfile"
	"faasnap/internal/snapshot"
	"faasnap/internal/workload"
)

// recorded returns the recordings the base-extent property walks: the
// 12 catalog functions on inputs A and B, and functions shaped like the
// record-sync benchmark's (boot 8–32 MB; four share each of the 8, 12
// and 16 MB images).
func recorded(t *testing.T) []*core.Artifacts {
	t.Helper()
	var out []*core.Artifacts
	record := func(s *workload.Spec, in workload.Input) {
		arts, _ := core.Record(core.DefaultHostConfig(), s, in)
		out = append(out, arts)
	}
	for _, s := range workload.Catalog() {
		record(s, s.A)
		record(s, s.B)
	}
	custom := func(name string, bootMB, stable int) {
		raw, _ := json.Marshal(map[string]interface{}{
			"name": name, "boot_mb": bootMB, "stable_pages": stable,
			"chunk_mean": 4, "retain_frac": 0.5, "base_ms": 2, "per_kb_us": 2, "init_ms": 10,
			"input_a": map[string]int64{"bytes": 4096, "data_pages": 8},
			"input_b": map[string]int64{"bytes": 16384, "data_pages": 24},
		})
		s, err := workload.ParseSpec(raw)
		if err != nil {
			t.Fatal(err)
		}
		record(s, s.A)
	}
	for i, mb := range []int{20, 24, 28, 32} {
		custom(fmt.Sprintf("own-%02dmb", mb), mb, 256+i*64)
	}
	for _, mb := range []int{8, 12, 16} {
		for k := 0; k < 4; k++ {
			custom(fmt.Sprintf("shared-%02dmb-%d", mb, k), mb, 256+k*64)
		}
	}
	return out
}

// TestBaseExtentIsTheImage: every extent BaseExtent accepts holds the
// bytes the same extent holds in another function on that image, one
// whose every page is non-zero. It walks each recording's chunks, the
// extent that reaches one page past its boot image, and a copy of one
// recording with a boot page zeroed; those last two must be refused.
func TestBaseExtentIsTheImage(t *testing.T) {
	recs := recorded(t)
	zeroed := &core.Artifacts{Fn: recs[0].Fn, RecordInput: recs[0].RecordInput, Mem: recs[0].Mem.Clone()}
	zeroed.Mem.SetZero(1, true)
	recs = append(recs, zeroed)

	others := map[int64]*core.Artifacts{}
	bufA, bufB := make([]byte, DefaultChunkPages*snapshot.PageSize), make([]byte, DefaultChunkPages*snapshot.PageSize)
	var accepted int
	for _, arts := range recs {
		boot := arts.Fn.BootPages
		other := others[boot]
		if other == nil {
			mem := snapshot.NewMemoryFile(arts.Mem.Pages)
			for p := int64(0); p < mem.Pages; p++ {
				mem.SetZero(p, false)
			}
			other = &core.Artifacts{Fn: &workload.Spec{Name: "other-function", BootPages: boot}, Mem: mem}
			others[boot] = other
		}
		edge := snapfile.ChunkRef{StartPage: boot + 1 - DefaultChunkPages, Pages: DefaultChunkPages, Bytes: DefaultChunkPages * snapshot.PageSize}
		if _, ok := BaseExtent(arts, edge); ok {
			t.Fatalf("%s: the extent holding page %d, the first past the boot image, is a base extent", arts.Fn.Name, boot)
		}
		refs := append(PlanChunks(arts, 0).Refs, edge)
		for _, ref := range refs {
			ext, ok := BaseExtent(arts, ref)
			if !ok {
				continue
			}
			accepted++
			if ext != (Extent{boot, ref.StartPage, ref.Pages}) {
				t.Fatalf("%s: extent at page %d named %+v", arts.Fn.Name, ref.StartPage, ext)
			}
			if !bytes.Equal(Fill(arts, ref, bufA), Fill(other, ref, bufB)) {
				t.Fatalf("%s/%s: base extent at page %d (boot image %d pages) differs from another function's on that image",
					arts.Fn.Name, arts.RecordInput.Name, ref.StartPage, boot)
			}
		}
	}
	if _, ok := BaseExtent(zeroed, snapfile.ChunkRef{Pages: DefaultChunkPages, Bytes: DefaultChunkPages * snapshot.PageSize}); ok {
		t.Fatal("an extent holding a zero page is a base extent")
	}
	// A peer's chunk map may declare any length up to its decoder's cap;
	// Fill would write past a short one.
	if _, ok := BaseExtent(recs[0], snapfile.ChunkRef{StartPage: DefaultChunkPages, Pages: DefaultChunkPages, Bytes: snapshot.PageSize}); ok {
		t.Fatal("an extent declared shorter than its pages is a base extent")
	}
	if accepted == 0 {
		t.Fatal("no recording has a base extent")
	}
	t.Logf("%d base extents over %d recordings", accepted, len(recs))
}
