package casstore

// A pack file is its chunks' payloads back to back, then one entry per
// chunk — digest (32 bytes), offset and length (uint64 each,
// little-endian) — then a footer: the entry count (uint32), a CRC-32C
// over the entries and the count (uint32), and the magic "faasnpk1".

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"faasnap/internal/atomicfile"
)

const (
	entrySize  = sha256.Size + 16
	footerSize = 16
	packMagic  = "faasnpk1"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTrailer reports a pack whose trailer does not decode.
var errTrailer = errors.New("casstore: bad pack trailer")

// entry is one chunk of a pack: its digest and its section.
type entry struct {
	d      Digest
	off, n int64
}

// appendTrailer appends the trailer listing entries to b.
func appendTrailer(b []byte, entries []entry) []byte {
	start := len(b)
	for _, e := range entries {
		b = append(b, e.d[:]...)
		b = binary.LittleEndian.AppendUint64(b, uint64(e.off))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.n))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], crcTable))
	return append(b, packMagic...)
}

// decodeTrailer returns the entries of the pack of size bytes behind r,
// each of them a section of the payloads before the trailer.
func decodeTrailer(r io.ReaderAt, size int64) ([]entry, error) {
	var foot [footerSize]byte
	if size < footerSize {
		return nil, fmt.Errorf("%w: %d bytes", errTrailer, size)
	}
	if err := readAt(r, foot[:], size-footerSize); err != nil {
		return nil, err
	}
	if string(foot[8:]) != packMagic {
		return nil, fmt.Errorf("%w: no magic", errTrailer)
	}
	count := int64(binary.LittleEndian.Uint32(foot[:4]))
	end := size - footerSize - count*entrySize
	if end < 0 {
		return nil, fmt.Errorf("%w: %d entries in %d bytes", errTrailer, count, size)
	}
	raw := make([]byte, count*entrySize+4)
	if err := readAt(r, raw, end); err != nil {
		return nil, err
	}
	if crc32.Checksum(raw, crcTable) != binary.LittleEndian.Uint32(foot[4:8]) {
		return nil, fmt.Errorf("%w: CRC mismatch", errTrailer)
	}
	entries := make([]entry, count)
	for i := range entries {
		b := raw[i*entrySize:]
		off, n := binary.LittleEndian.Uint64(b[sha256.Size:]), binary.LittleEndian.Uint64(b[sha256.Size+8:])
		if off > uint64(end) || n > uint64(end)-off {
			return nil, fmt.Errorf("%w: entry %d ends past the payloads", errTrailer, i)
		}
		copy(entries[i].d[:], b)
		entries[i].off, entries[i].n = int64(off), int64(n)
	}
	return entries, nil
}

// readAt fills p from r at off.
func readAt(r io.ReaderAt, p []byte, off int64) error {
	_, err := io.ReadFull(io.NewSectionReader(r, off, int64(len(p))), p)
	return err
}

// Pack writes chunks into pack files. Chunks are appended from any
// number of goroutines, and none is visible — to Has, Get or a restart —
// until a Commit has made the file that holds it durable.
type Pack struct {
	s       *Store
	dir     string // the tier's directory
	mu      sync.Mutex
	f       *atomicfile.Pending // created with the first chunk after a Commit
	name    string
	entries []entry
	in      map[Digest]bool
	size    int64
	err     error
}

// NewPack starts a local pack.
func (s *Store) NewPack() *Pack { return s.newPack(localDir) }

func (s *Store) newPack(dir string) *Pack { return &Pack{s: s, dir: dir, in: map[Digest]bool{}} }

// Put appends data under its own digest, hashed once, here, unless the
// store or the pack already holds it (a dedup hit, reported as existed).
func (p *Pack) Put(data []byte) (Digest, bool, error) {
	d := Sum(data)
	existed, err := p.put(d, data)
	return d, existed, err
}

// PutDigest appends data, which must hash to d: the receive path for
// chunks fetched from a peer, where a transfer corruption has to be
// rejected before the bytes are committed under a trusted name.
func (p *Pack) PutDigest(d Digest, data []byte) (bool, error) {
	if got := Sum(data); got != d {
		return false, fmt.Errorf("%w: payload hashes to %s, expected %s", ErrCorrupt, got, d)
	}
	return p.put(d, data)
}

func (p *Pack) put(d Digest, data []byte) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.in[d] || p.s.Has(d) {
		p.s.dedupHits.Inc()
		return true, nil
	}
	return false, p.append(d, data)
}

// append writes one chunk at the pack's end. Caller holds p.mu, or owns
// the pack alone.
func (p *Pack) append(d Digest, data []byte) error {
	if p.err == nil && p.f == nil {
		p.name = fmt.Sprintf("%s/%016x.pack", p.dir, p.s.seq.Add(1))
		if p.err = atomicfile.MkdirAll(p.s.path(p.dir)); p.err == nil {
			p.f, p.err = atomicfile.Create(p.s.path(p.name))
		}
	}
	if p.err == nil {
		_, p.err = p.f.Write(data)
	}
	if p.err != nil {
		return p.err
	}
	p.in[d] = true
	p.entries = append(p.entries, entry{d, p.size, int64(len(data))})
	p.size += int64(len(data))
	return nil
}

// Commit writes the trailer and commits what the pack holds as one file
// — one temp file, one fsync, one rename, one directory fsync — and only
// then indexes its chunks; it returns how many it held. The pack is then
// empty again: a later Put starts the next file. A pack a Put failed in
// commits nothing and returns that failure.
func (p *Pack) Commit() (int, error) {
	n, _, err := p.commit()
	return n, err
}

// commit is Commit, also returning the size of the file it committed.
func (p *Pack) commit() (int, int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, name, entries, err := p.f, p.name, p.entries, p.err
	size := p.size + int64(len(entries)*entrySize+footerSize)
	p.f, p.entries, p.in, p.size, p.err = nil, nil, map[Digest]bool{}, 0, nil
	if f == nil || err != nil {
		if f != nil {
			f.Abort()
		}
		return len(entries), 0, err
	}
	if _, err := f.Write(appendTrailer(nil, entries)); err != nil {
		f.Abort()
		return len(entries), 0, err
	}
	if err := f.Commit(); err != nil {
		return len(entries), 0, err
	}
	p.s.install(name, size, entries)
	return len(entries), size, nil
}
