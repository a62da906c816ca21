package casstore

// Chunking: cutting a recorded snapshot's memory content into the
// fixed-size, page-aligned extents the store addresses.
//
// The simulator's memory files track which pages are non-zero, not
// their bytes, so chunk payloads are modeled content, generated
// deterministically from page identity:
//
//   - pages inside the boot/runtime image (below the spec's BootPages)
//     derive from the *base-image key* — the guest kernel and runtime
//     bytes every function built on that image shares. Two functions
//     recorded from the same base produce bit-identical boot chunks,
//     which is exactly the cross-function dedup real CAS snapshot
//     stores get from shared layers;
//   - every other page derives from the function's own identity, so
//     private heap/data pages never falsely collide.
//
// The generated pages are internally repetitive (a 1 KiB pattern
// repeated), matching how real guest memory compresses in the cold
// tier without changing the dedup story.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"faasnap/internal/core"
	"faasnap/internal/snapfile"
	"faasnap/internal/snapshot"
)

// DefaultChunkPages is the chunking granularity: 64 pages = 256 KiB,
// page-aligned in guest-page index space.
const DefaultChunkPages = 64

// seedFor derives the content seed of one page.
func seedFor(key string, page int64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64() ^ (uint64(page) * 0x9e3779b97f4a7c15)
}

// fillPage writes page content for seed into buf (one page): a 1 KiB
// splitmix64-generated pattern repeated to fill the page.
func fillPage(buf []byte, seed uint64) {
	const pattern = 1024
	n := len(buf)
	if n > pattern {
		n = pattern
	}
	x := seed
	for i := 0; i+8 <= n; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(buf[i:], z)
	}
	for i := n; i < len(buf); i += n {
		copy(buf[i:], buf[:n])
	}
}

// Chunk pairs a chunk-map reference with its payload bytes.
type Chunk struct {
	Ref  snapfile.ChunkRef
	Data []byte
}

// interval is a half-open page range tagged with its loading-set
// group.
type interval struct {
	start, end int64
	group      int
}

// lsIntervals flattens the loading set's non-zero regions into sorted
// page intervals.
func lsIntervals(arts *core.Artifacts) []interval {
	var out []interval
	if arts.LS == nil {
		return out
	}
	for _, r := range arts.LS.Regions {
		if r.Zero || r.Len <= 0 {
			continue
		}
		out = append(out, interval{start: r.Start, end: r.Start + r.Len, group: r.Group})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// PlanChunks cuts arts' memory file into the extents of chunkPages pages
// (<= 0 takes DefaultChunkPages) that BuildChunks would make chunks of:
// refs with no payload read and no digest yet. All-zero extents produce
// no ref — a restore zero-fills uncovered ranges. Each ref carries
// whether the extent overlaps the loading set and the lowest
// overlapping group, which orders eager fetching on restore.
func PlanChunks(arts *core.Artifacts, chunkPages int64) *snapfile.ChunkMap {
	if chunkPages <= 0 {
		chunkPages = DefaultChunkPages
	}
	mem := arts.Mem
	ls := lsIntervals(arts)
	cm := &snapfile.ChunkMap{ChunkPages: chunkPages}
	li := 0
	for start := int64(0); start < mem.Pages; start += chunkPages {
		end := min(start+chunkPages, mem.Pages)
		nonZero := false
		for p := start; p < end && !nonZero; p++ {
			nonZero = !mem.IsZero(p)
		}
		if !nonZero {
			continue
		}
		ref := snapfile.ChunkRef{
			StartPage: start,
			Pages:     end - start,
			Bytes:     (end - start) * snapshot.PageSize,
			Group:     -1,
		}
		// Advance the loading-set cursor past intervals that end before
		// this chunk, then scan the overlapping ones for the lowest group.
		for li < len(ls) && ls[li].end <= start {
			li++
		}
		for i := li; i < len(ls) && ls[i].start < end; i++ {
			if ls[i].end <= start {
				continue
			}
			ref.LS = true
			if ref.Group < 0 || int64(ls[i].group) < ref.Group {
				ref.Group = int64(ls[i].group)
			}
		}
		cm.Refs = append(cm.Refs, ref)
	}
	return cm
}

// Fill writes the content of ref's extent of arts' memory file into the
// first ref.Bytes of buf, zero pages included, and returns them: a
// buffer can be reused from one extent to the next. It is the only
// definition of a page's bytes; BaseExtent reads it.
func Fill(arts *core.Artifacts, ref snapfile.ChunkRef, buf []byte) []byte {
	data := buf[:ref.Bytes]
	baseKey := fmt.Sprintf("base-image-%dp", arts.Fn.BootPages)
	fnKey := "fn-" + arts.Fn.Name
	for i := int64(0); i < ref.Pages; i++ {
		p, page := ref.StartPage+i, data[i*snapshot.PageSize:(i+1)*snapshot.PageSize]
		switch {
		case arts.Mem.IsZero(p):
			clear(page)
		case p < arts.Fn.BootPages:
			fillPage(page, seedFor(baseKey, p))
		default:
			fillPage(page, seedFor(fnKey, p))
		}
	}
	return data
}

// Extent names one base extent: its pages of the base image of
// BootPages pages.
type Extent struct{ BootPages, StartPage, Pages int64 }

// BaseExtent reports whether ref's extent of arts' memory file is a base
// extent, and names it: every page lies below the function's BootPages
// and none is zero, so Fill writes it from the base-image key alone and
// every function on that image holds the same bytes there.
func BaseExtent(arts *core.Artifacts, ref snapfile.ChunkRef) (Extent, bool) {
	end := ref.StartPage + ref.Pages
	if end > arts.Fn.BootPages || end > arts.Mem.Pages || ref.Bytes != ref.Pages*snapshot.PageSize {
		return Extent{}, false
	}
	for p := ref.StartPage; p < end; p++ {
		if arts.Mem.IsZero(p) {
			return Extent{}, false
		}
	}
	return Extent{arts.Fn.BootPages, ref.StartPage, ref.Pages}, true
}

// BuildChunks plans arts' chunks (PlanChunks) and reads and hashes every
// one of them, holding all of their payloads at once.
func BuildChunks(arts *core.Artifacts, chunkPages int64) (*snapfile.ChunkMap, []Chunk) {
	cm := PlanChunks(arts, chunkPages)
	chunks := make([]Chunk, len(cm.Refs))
	for i := range cm.Refs {
		data := Fill(arts, cm.Refs[i], make([]byte, cm.Refs[i].Bytes))
		cm.Refs[i].Digest = Sum(data)
		chunks[i] = Chunk{Ref: cm.Refs[i], Data: data}
	}
	return cm, chunks
}
