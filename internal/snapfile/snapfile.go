// Package snapfile serializes snapshot artifacts (memory-file page
// map, allocator state, working sets, loading sets) to a versioned,
// checksummed binary format. The FaaSnap daemon persists one snapfile
// per recorded function so deployments survive restarts, playing the
// role of the snapshot/working-set files the paper's daemon keeps on
// local or remote storage.
//
// Layout (little endian): magic "FSNP", u64 version, the artifact
// sections, a chunk-map section — content-addressed references into
// the CAS chunk store (internal/casstore) — and a trailing CRC-32
// (IEEE) of everything before it. There is one wire version; a file
// carrying any other is rejected.
package snapfile

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"faasnap/internal/atomicfile"
	"faasnap/internal/core"
	"faasnap/internal/guest"
	"faasnap/internal/snapshot"
	"faasnap/internal/workingset"
	"faasnap/internal/workload"
)

const (
	magic = "FSNP"
	// version is the one wire version.
	version = 2
	// maxSliceLen guards against corrupt length fields.
	maxSliceLen = 1 << 28
	// DigestLen is the size of a chunk digest (SHA-256).
	DigestLen = 32
)

// ChunkRef is one content-addressed extent of the memory file: Pages
// guest pages starting at StartPage whose content hashes to Digest.
// LS marks a chunk that overlaps the loading set — a restore fetches
// those first, lowest Group first (the paper's per-region priority),
// then the rest.
type ChunkRef struct {
	Digest    [DigestLen]byte
	StartPage int64
	Pages     int64
	Bytes     int64 // payload size; trailing chunks may be short
	LS        bool
	Group     int64 // lowest overlapping loading-set group, -1 when none
}

// ChunkMap is the chunk-map section: the chunked view of the
// snapshot's non-zero memory extents. Page ranges not covered by any
// ref are all-zero.
type ChunkMap struct {
	ChunkPages int64 // chunking granularity in pages
	Refs       []ChunkRef
}

// TotalBytes is the logical (pre-dedup) payload size of every ref.
func (m *ChunkMap) TotalBytes() int64 {
	var n int64
	for _, r := range m.Refs {
		n += r.Bytes
	}
	return n
}

// LSBytes is the payload size of the loading-set refs alone.
func (m *ChunkMap) LSBytes() int64 {
	var n int64
	for _, r := range m.Refs {
		if r.LS {
			n += r.Bytes
		}
	}
	return n
}

type cw struct {
	w   io.Writer
	crc uint32
	err error
}

func (c *cw) write(p []byte) {
	if c.err != nil {
		return
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	_, c.err = c.w.Write(p)
}

func (c *cw) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	c.write(buf[:])
}

func (c *cw) i64(v int64) { c.u64(uint64(v)) }

func (c *cw) str(s string) {
	c.i64(int64(len(s)))
	c.write([]byte(s))
}

func (c *cw) i64s(vs []int64) {
	c.i64(int64(len(vs)))
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
	}
	c.write(buf)
}

type cr struct {
	r   io.Reader
	crc uint32
	err error
}

func (c *cr) read(p []byte) {
	if c.err != nil {
		return
	}
	if _, err := io.ReadFull(c.r, p); err != nil {
		c.err = err
		return
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
}

func (c *cr) u64() uint64 {
	var buf [8]byte
	c.read(buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

func (c *cr) i64() int64 { return int64(c.u64()) }

func (c *cr) str() string {
	n := c.i64()
	if c.err != nil || n < 0 || n > maxSliceLen {
		c.fail("bad string length %d", n)
		return ""
	}
	buf := make([]byte, n)
	c.read(buf)
	return string(buf)
}

func (c *cr) i64s() []int64 {
	n := c.i64()
	if c.err != nil || n < 0 || n > maxSliceLen {
		c.fail("bad slice length %d", n)
		return nil
	}
	buf := make([]byte, 8*n)
	c.read(buf)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out
}

func (c *cr) fail(format string, args ...interface{}) {
	if c.err == nil {
		c.err = fmt.Errorf("snapfile: "+format, args...)
	}
}

func writeRegions(w *cw, regions []snapshot.Region) {
	w.i64(int64(len(regions)))
	for _, r := range regions {
		w.i64(r.Start)
		w.i64(r.Len)
		if r.Zero {
			w.i64(1)
		} else {
			w.i64(0)
		}
		w.i64(int64(r.Group))
	}
}

func readRegions(r *cr) []snapshot.Region {
	n := r.i64()
	if r.err != nil || n < 0 || n > maxSliceLen {
		r.fail("bad region count %d", n)
		return nil
	}
	out := make([]snapshot.Region, n)
	for i := range out {
		out[i].Start = r.i64()
		out[i].Len = r.i64()
		out[i].Zero = r.i64() != 0
		out[i].Group = int(r.i64())
	}
	return out
}

func writeLoadingSet(w *cw, ls *workingset.LoadingSet) {
	writeRegions(w, ls.Regions)
	w.i64s(ls.Offsets)
	w.i64(ls.Total)
}

func readLoadingSet(r *cr) *workingset.LoadingSet {
	ls := &workingset.LoadingSet{
		Regions: readRegions(r),
		Offsets: r.i64s(),
		Total:   r.i64(),
	}
	if r.err == nil && len(ls.Regions) != len(ls.Offsets) {
		r.fail("loading set regions/offsets mismatch: %d vs %d", len(ls.Regions), len(ls.Offsets))
	}
	return ls
}

func writeInput(w *cw, in workload.Input) {
	w.str(in.Name)
	w.i64(in.Bytes)
	w.i64(in.Seed)
	w.i64(in.DataPages)
}

func readInput(r *cr) workload.Input {
	return workload.Input{
		Name:      r.str(),
		Bytes:     r.i64(),
		Seed:      r.i64(),
		DataPages: r.i64(),
	}
}

func writeChunkMap(w *cw, m *ChunkMap) {
	w.i64(m.ChunkPages)
	w.i64(int64(len(m.Refs)))
	for _, r := range m.Refs {
		w.write(r.Digest[:])
		w.i64(r.StartPage)
		w.i64(r.Pages)
		w.i64(r.Bytes)
		var flags uint64
		if r.LS {
			flags |= 1
		}
		w.u64(flags)
		w.i64(r.Group)
	}
}

func readChunkMap(r *cr) *ChunkMap {
	m := &ChunkMap{ChunkPages: r.i64()}
	if r.err == nil && (m.ChunkPages <= 0 || m.ChunkPages > maxSliceLen) {
		r.fail("bad chunk-map granularity %d", m.ChunkPages)
		return nil
	}
	n := r.i64()
	if r.err != nil || n < 0 || n > maxSliceLen {
		r.fail("bad chunk ref count %d", n)
		return nil
	}
	m.Refs = make([]ChunkRef, n)
	for i := range m.Refs {
		ref := &m.Refs[i]
		r.read(ref.Digest[:])
		ref.StartPage = r.i64()
		ref.Pages = r.i64()
		ref.Bytes = r.i64()
		flags := r.u64()
		ref.LS = flags&1 != 0
		ref.Group = r.i64()
		if r.err != nil {
			return nil
		}
		if ref.StartPage < 0 || ref.Pages <= 0 || ref.Pages > m.ChunkPages ||
			ref.Bytes <= 0 || ref.Bytes > ref.Pages*(1<<16) {
			r.fail("bad chunk ref %d: start=%d pages=%d bytes=%d",
				i, ref.StartPage, ref.Pages, ref.Bytes)
			return nil
		}
	}
	return m
}

// WriteChunked serializes arts and their chunk map to w.
func WriteChunked(w io.Writer, arts *core.Artifacts, chunks *ChunkMap) error {
	bw := bufio.NewWriter(w)
	c := &cw{w: bw}
	c.write([]byte(magic))
	c.u64(version)
	c.str(arts.Fn.Name)
	// Custom functions embed their defining config so they survive
	// restarts; catalog functions resolve by name.
	var origin string
	if arts.Fn.Origin != nil {
		raw, err := json.Marshal(arts.Fn.Origin)
		if err != nil {
			return fmt.Errorf("snapfile: encode custom spec: %w", err)
		}
		origin = string(raw)
	}
	c.str(origin)
	writeInput(c, arts.RecordInput)

	// Memory file: page count plus non-zero page list (usually much
	// smaller than the raw bitmap).
	c.i64(arts.Mem.Pages)
	var nz []int64
	for _, reg := range arts.Mem.NonZeroRegions() {
		for p := reg.Start; p < reg.End(); p++ {
			nz = append(nz, p)
		}
	}
	c.i64s(nz)

	c.i64s(arts.Alloc.Free)
	c.i64(arts.Alloc.Next)

	c.i64(int64(len(arts.WS.Groups)))
	for _, g := range arts.WS.Groups {
		c.i64s(g)
	}

	writeLoadingSet(c, arts.LS)
	writeLoadingSet(c, arts.LSUnmerged)
	c.i64s(arts.ReapWS.Pages)
	writeChunkMap(c, chunks)

	// Trailing checksum (not included in its own computation).
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], c.crc)
	if c.err == nil {
		_, c.err = bw.Write(buf[:])
	}
	if c.err != nil {
		return fmt.Errorf("snapfile: write: %w", c.err)
	}
	return bw.Flush()
}

// ReadChunked deserializes artifacts and their chunk map from r,
// resolving the function model from the workload catalog. Decode and
// CRC verification happen in the same streaming pass — there is no
// separate verify-then-decode read.
func ReadChunked(r io.Reader) (*core.Artifacts, *ChunkMap, error) {
	c := &cr{r: bufio.NewReader(r)}
	var m [4]byte
	c.read(m[:])
	if c.err == nil && string(m[:]) != magic {
		return nil, nil, fmt.Errorf("snapfile: bad magic %q", m)
	}
	v := c.u64()
	if c.err == nil && v != version {
		return nil, nil, fmt.Errorf("snapfile: unsupported version %d", v)
	}
	fnName := c.str()
	origin := c.str()
	in := readInput(c)

	pages := c.i64()
	if c.err != nil || pages <= 0 || pages > maxSliceLen {
		c.fail("bad page count %d", pages)
	}
	var mem *snapshot.MemoryFile
	if c.err == nil {
		mem = snapshot.NewMemoryFile(pages)
	}
	for _, p := range c.i64s() {
		if c.err != nil {
			break
		}
		if p < 0 || p >= pages {
			c.fail("non-zero page %d out of range", p)
			break
		}
		mem.SetZero(p, false)
	}

	alloc := guest.AllocState{Free: c.i64s(), Next: c.i64()}

	ws := &workingset.WorkingSet{}
	ngroups := c.i64()
	if c.err == nil && (ngroups < 0 || ngroups > maxSliceLen) {
		c.fail("bad group count %d", ngroups)
	}
	for i := int64(0); i < ngroups && c.err == nil; i++ {
		ws.Groups = append(ws.Groups, c.i64s())
	}

	ls := readLoadingSet(c)
	lsu := readLoadingSet(c)
	reapPages := c.i64s()

	var chunks *ChunkMap
	if c.err == nil {
		// readChunkMap returns nil on validation failure (with c.err
		// set) — don't dereference it on that path.
		chunks = readChunkMap(c)
		for i := 0; chunks != nil && c.err == nil && i < len(chunks.Refs); i++ {
			if ref := &chunks.Refs[i]; ref.StartPage+ref.Pages > pages {
				c.fail("chunk ref %d beyond memory file: start=%d pages=%d", i, ref.StartPage, ref.Pages)
			}
		}
	}

	wantCRC := c.crc
	var tail [4]byte
	if c.err == nil {
		if _, err := io.ReadFull(c.r, tail[:]); err != nil {
			c.err = err
		}
	}
	if c.err != nil {
		return nil, nil, fmt.Errorf("snapfile: read: %w", c.err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != wantCRC {
		return nil, nil, fmt.Errorf("snapfile: checksum mismatch: file %08x, computed %08x", got, wantCRC)
	}

	fn, err := workload.ByName(fnName)
	if err != nil {
		if origin == "" {
			return nil, nil, fmt.Errorf("snapfile: %w", err)
		}
		fn, err = workload.ParseSpec([]byte(origin))
		if err != nil {
			return nil, nil, fmt.Errorf("snapfile: custom spec: %w", err)
		}
	}
	return &core.Artifacts{
		Fn:          fn,
		RecordInput: in,
		Mem:         mem,
		Alloc:       alloc,
		WS:          ws,
		LS:          ls,
		LSUnmerged:  lsu,
		ReapWS:      workingset.NewWSFile(reapPages),
	}, chunks, nil
}

// SaveChunked writes arts and their chunk map to path atomically and
// durably (atomicfile.Write): a committed snapfile is either absent or
// complete — never half-written.
func SaveChunked(path string, arts *core.Artifacts, chunks *ChunkMap) error {
	return atomicfile.Write(path, func(w io.Writer) error { return WriteChunked(w, arts, chunks) })
}

// CommitRaw writes pre-encoded snapfile bytes (as fetched from a peer
// daemon) to path with SaveChunked's atomicity and durability. The
// caller is expected to have decoded raw first, so a torn or corrupt
// transfer never reaches a committed name.
func CommitRaw(path string, raw []byte) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

// LoadChunked reads artifacts and the chunk map from path, checking the
// file end to end — magic, version, sections, trailing CRC — in one
// streaming pass.
func LoadChunked(path string) (*core.Artifacts, *ChunkMap, error) {
	fd, err := atomicfile.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer fd.Close()
	return ReadChunked(fd)
}
