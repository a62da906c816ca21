package cpu

import (
	"fmt"
	"testing"
	"time"

	"faasnap/internal/sim"
)

// BenchmarkPSBurst measures one compute burst through PS.Exec on a
// 64-core pool, each process alternating a burst and a sleep. With 16
// processes (the shape of a burst of VMs) every burst gets a whole
// core; with 96 more bursts are runnable than there are cores, so the
// share moves as bursts start and end. One op is one burst.
func BenchmarkPSBurst(b *testing.B) {
	for _, procs := range []int{16, 96} {
		b.Run(fmt.Sprint(procs, "procs"), func(b *testing.B) {
			e := sim.NewEnv(1)
			c := New(e, 64)
			per := b.N/procs + 1
			for i := 0; i < procs; i++ {
				work := time.Duration(40+i) * time.Microsecond
				e.Go("vcpu", func(p *sim.Proc) {
					for k := 0; k < per; k++ {
						c.Exec(p, work)
						p.Sleep(20 * time.Microsecond)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}
