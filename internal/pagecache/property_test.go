package pagecache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"faasnap/internal/blockdev"
	"faasnap/internal/sim"
)

// TestPropertyResidencyConsistent drives random fault/bulk/drop
// operations and checks that the resident-page counter, the bitset,
// and Mincore always agree, and nothing ends up in flight.
func TestPropertyResidencyConsistent(t *testing.T) {
	const pages = 2048
	f := func(seed int64, nOps uint8) bool {
		env := sim.NewEnv(1)
		c := New(env)
		dev := blockdev.New(env, blockdev.NVMeLocal())
		file := c.Register("f", dev, pages)
		rng := rand.New(rand.NewSource(seed))
		ok := true
		env.Go("driver", func(p *sim.Proc) {
			for i := 0; i < int(nOps%64)+1; i++ {
				switch rng.Intn(4) {
				case 0:
					c.FaultRead(p, file, int64(rng.Intn(pages)), blockdev.FaultRead)
				case 1:
					start := int64(rng.Intn(pages))
					n := int64(rng.Intn(int(pages-start))) + 1
					c.ReadRange(p, file, start, n, blockdev.PrefetchRead)
				case 2:
					c.ReadRangeDirect(p, file, int64(rng.Intn(pages/2)), int64(rng.Intn(16)+1), blockdev.FetchRead)
				case 3:
					if rng.Intn(8) == 0 {
						c.Drop(file)
					}
				}
			}
			// Bitset vs counter vs Mincore agreement.
			var count int64
			res := c.Mincore(file, 0, pages)
			for pg := int64(0); pg < pages; pg++ {
				if c.IsResident(file, pg) != res[pg] {
					ok = false
				}
				if res[pg] {
					count++
				}
			}
			if count != c.ResidentPages(file) {
				ok = false
			}
		})
		env.Run()
		if len(file.flights) != 0 {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFaultThenResident: any page fault-read is resident
// afterwards, and a second access is a hit.
func TestPropertyFaultThenResident(t *testing.T) {
	const pages = 1024
	f := func(seed int64) bool {
		env := sim.NewEnv(1)
		c := New(env)
		dev := blockdev.New(env, blockdev.NVMeLocal())
		file := c.Register("f", dev, pages)
		rng := rand.New(rand.NewSource(seed))
		ok := true
		env.Go("driver", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				pg := int64(rng.Intn(pages))
				c.FaultRead(p, file, pg, blockdev.FaultRead)
				if !c.IsResident(file, pg) {
					ok = false
				}
				if r := c.FaultRead(p, file, pg, blockdev.FaultRead); !r.Hit {
					ok = false
				}
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeviceBytesMatchPages: the device never reads fewer
// bytes than the pages that became resident (readahead may read more,
// never less).
func TestPropertyDeviceBytesMatchPages(t *testing.T) {
	const pages = 1024
	f := func(seed int64, nFaults uint8) bool {
		env := sim.NewEnv(1)
		c := New(env)
		dev := blockdev.New(env, blockdev.NVMeLocal())
		file := c.Register("f", dev, pages)
		rng := rand.New(rand.NewSource(seed))
		env.Go("driver", func(p *sim.Proc) {
			for i := 0; i < int(nFaults%32)+1; i++ {
				c.FaultRead(p, file, int64(rng.Intn(pages)), blockdev.FaultRead)
			}
		})
		env.Run()
		return dev.Stats().Bytes >= c.ResidentPages(file)*PageSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
