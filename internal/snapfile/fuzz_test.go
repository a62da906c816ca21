package snapfile

import (
	"bytes"
	"testing"

	"faasnap/internal/core"
	"faasnap/internal/workload"
)

// FuzzRead feeds arbitrary bytes to the snapfile reader: it must never
// panic and never allocate absurdly (the length guards must hold).
func FuzzRead(f *testing.F) {
	// Seed with a valid file and simple corruptions of it.
	fn, err := workload.ByName("hello-world")
	if err != nil {
		f.Fatal(err)
	}
	arts, _ := core.Record(core.DefaultHostConfig(), fn, fn.A)
	var buf bytes.Buffer
	if err := write(&buf, arts); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("FSNP"))
	f.Add([]byte{})
	flip := append([]byte(nil), valid...)
	flip[10] ^= 0xff
	f.Add(flip)

	// A file claiming the never-shipped version 1 is rejected like any
	// other unknown version.
	f.Add(withVersion(valid, 1))

	// A second chunked file, its truncations (which tear the chunk
	// refs), and digest-region corruption.
	cm := &ChunkMap{ChunkPages: 64}
	for i := 0; i < 4; i++ {
		cm.Refs = append(cm.Refs, ChunkRef{
			Digest:    [DigestLen]byte{byte(i), 0xaa, 0x55},
			StartPage: int64(i) * 64,
			Pages:     64,
			Bytes:     64 * 4096,
			LS:        i == 0,
			Group:     int64(i%2) - 1,
		})
	}
	var v2buf bytes.Buffer
	if err := WriteChunked(&v2buf, arts, cm); err != nil {
		f.Fatal(err)
	}
	v2 := v2buf.Bytes()
	f.Add(v2)
	f.Add(v2[:len(v2)-1])   // lose the checksum tail
	f.Add(v2[:len(v2)*3/4]) // tear mid chunk-ref table
	f.Add(v2[:len(v2)/2])   // tear mid body
	v2flip := append([]byte(nil), v2...)
	v2flip[len(v2flip)-64] ^= 0xff // land inside the trailing refs/digests
	f.Add(v2flip)
	v2short := append([]byte(nil), v2...)
	if len(v2short) > 40 {
		copy(v2short[20:], v2short[28:]) // shift bytes so digest lengths misalign
		f.Add(v2short[:len(v2short)-8])
	}

	// A CRC-valid file whose chunk refs are semantically invalid
	// (Pages > ChunkPages): readChunkMap rejects it and returns nil,
	// which the reader must handle without dereferencing the nil map.
	badCM := &ChunkMap{ChunkPages: 64}
	badCM.Refs = append(badCM.Refs, ChunkRef{
		Digest:    [DigestLen]byte{0xde, 0xad},
		StartPage: 0,
		Pages:     65, // > ChunkPages
		Bytes:     65 * 4096,
	})
	var badBuf bytes.Buffer
	if err := WriteChunked(&badBuf, arts, badCM); err != nil {
		f.Fatal(err)
	}
	f.Add(badBuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		arts, _, err := ReadChunked(bytes.NewReader(data))
		if err == nil && arts == nil {
			t.Fatal("nil artifacts without error")
		}
	})
}
