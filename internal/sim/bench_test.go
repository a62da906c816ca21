package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw kernel throughput: how many
// timer events per second the DES kernel can process. A second process
// parked in Cond.WaitFor keeps a tick queued a microsecond ahead and is
// re-armed on the kernel's stack, so each of the sleeper's wakes is
// posted to and popped from the heap behind a tick, with no process
// switch. One op is one sleep and one tick.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEnv(1)
	c, t := NewCond(e), &ticker{}
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
		t.stop = true
	})
	e.Go("ticker", func(p *Proc) { c.WaitFor(p, t) })
	b.ResetTimer()
	e.Run()
}

// ticker asks for a wake every microsecond until it is stopped.
type ticker struct{ stop bool }

func (t *ticker) Recheck() time.Duration {
	if t.stop {
		return 0
	}
	return time.Microsecond
}

// BenchmarkLoneSleep measures a sleep with nothing else queued, which
// the kernel delivers in place without touching the heap.
func BenchmarkLoneSleep(b *testing.B) {
	e := NewEnv(1)
	e.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcessChurn measures spawn/join cost.
func BenchmarkProcessChurn(b *testing.B) {
	e := NewEnv(1)
	e.Go("parent", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			child := e.Go("child", func(c *Proc) { c.Sleep(time.Nanosecond) })
			p.Join(child)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkResourceContention measures FIFO-resource handoff with 8
// competing processes.
func BenchmarkResourceContention(b *testing.B) {
	e := NewEnv(1)
	r := NewResource(e, 1)
	per := b.N/8 + 1
	for i := 0; i < 8; i++ {
		e.Go("u", func(p *Proc) {
			for j := 0; j < per; j++ {
				r.Acquire(p)
				p.Sleep(time.Nanosecond)
				r.Release()
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkCondWaitFor measures the wake pattern of cpu.PS.Exec: four
// processes share one condition, and each compute burst announces
// itself with a Broadcast, waits on the condition until its own
// deadline (every other burst's announcement wakes it early, and the
// kernel rechecks it without resuming it), and announces its end. One
// op is one burst.
func BenchmarkCondWaitFor(b *testing.B) {
	e := NewEnv(1)
	c := NewCond(e)
	per := b.N/4 + 1
	for i := 0; i < 4; i++ {
		work := time.Duration(i+1) * time.Microsecond
		e.Go("vcpu", func(p *Proc) {
			d := &deadline{p: p}
			for j := 0; j < per; j++ {
				c.Broadcast()
				d.end = p.Now() + work
				c.WaitFor(p, d)
				c.Broadcast()
			}
		})
	}
	b.ResetTimer()
	e.Run()
}
