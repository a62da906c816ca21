// Package blockdev models block storage devices with per-request
// latency, sustained bandwidth, an IOPS ceiling, and a bounded queue
// depth. Two profiles matter for the paper: the local NVMe SSD of the
// c5d.metal testbed (measured 1589 MB/s, 285k IOPS) and a remote EBS
// io2 volume (1 GB/s, 64k IOPS) used in the remote-storage experiment
// (Figure 11).
//
// The model issues each request through two stages: an access-latency
// stage that runs in parallel up to the device queue depth, and a
// serialized transfer stage whose service time is
// size/bandwidth + 1/IOPS. The serialized stage yields the right
// asymptotics: random 4 KiB reads saturate at the IOPS limit while
// large sequential reads saturate at the bandwidth limit — exactly the
// contrast between scattered on-demand paging and loading-set-file
// reads that FaaSnap exploits.
package blockdev

import (
	"fmt"
	"time"

	"faasnap/internal/sim"
)

// Profile describes a device's performance envelope.
type Profile struct {
	Name       string
	Latency    time.Duration // per-request access latency
	Bandwidth  int64         // sustained read bandwidth, bytes/second
	IOPS       int           // request-rate ceiling
	QueueDepth int           // concurrent requests accepted by the device
}

// NVMeLocal returns the paper's measurement-platform SSD profile:
// "an NVMe SSD with measured maximum read throughput of 1589 MB/s and
// IOPS of 285,000" (§6.1).
func NVMeLocal() Profile {
	return Profile{
		Name:       "nvme-local",
		Latency:    70 * time.Microsecond,
		Bandwidth:  1589 << 20,
		IOPS:       285000,
		QueueDepth: 64,
	}
}

// EBSRemote returns the Figure 11 remote volume profile: "an AWS
// Elastic Block Store (EBS) io2 volume with 64K maximum IOPS and
// 1 GB/s maximum throughput" (§6.7). The access latency is calibrated
// from the paper's measurement that vanilla Firecracker restore is on
// average only 33% slower on EBS than on the local NVMe SSD, which
// pins the volume's effective random-read latency near 150 µs
// (io2 with instance-side caching, not cold-HDD-class latency).
func EBSRemote() Profile {
	return Profile{
		Name:       "ebs-remote",
		Latency:    150 * time.Microsecond,
		Bandwidth:  1 << 30,
		IOPS:       64000,
		QueueDepth: 64,
	}
}

// Class tags the source of an I/O request so experiments can attribute
// disk traffic (Figure 9 counts block requests caused by VM faults
// separately from loader prefetch).
type Class int

const (
	// FaultRead is a read issued synchronously from a page-fault path.
	FaultRead Class = iota
	// PrefetchRead is a read issued by a prefetcher (readahead or the
	// FaaSnap loader).
	PrefetchRead
	// FetchRead is a bulk working-set fetch (REAP's blocking fetch).
	FetchRead
	// SnapshotWrite is snapshot-file creation traffic.
	SnapshotWrite
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case FaultRead:
		return "fault"
	case PrefetchRead:
		return "prefetch"
	case FetchRead:
		return "fetch"
	case SnapshotWrite:
		return "snapshot-write"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ClassStats aggregates traffic for one request class.
type ClassStats struct {
	Requests int64
	Bytes    int64
	Errors   int64
}

// Stats aggregates device activity.
type Stats struct {
	Requests  int64
	Bytes     int64
	Errors    int64         // requests a fault hook failed
	QueueWait time.Duration // time spent waiting for a device slot
	Busy      time.Duration // serialized transfer time
	ByClass   [numClasses]ClassStats
}

// Class returns the per-class counters for c.
func (s Stats) Class(c Class) ClassStats { return s.ByClass[c] }

// FaultFn lets a fault-injection layer degrade the device: slow > 1
// multiplies the request's service time (a throttled or failing disk),
// fail marks the request as errored in the device counters. Errored
// requests still consume device time — a real failed read holds the
// queue slot until the controller reports the error. blockdev stays
// ignorant of who decides; the chaos registry plugs in here without a
// dependency.
type FaultFn func(class Class, bytes int64) (slow float64, fail bool)

// Device is a simulated block device bound to one environment.
type Device struct {
	env   *sim.Env
	prof  Profile
	slots *sim.Resource
	bus   *sim.Resource
	stats Stats
	fault FaultFn
}

// New returns a device with the given profile in env.
func New(env *sim.Env, prof Profile) *Device {
	if prof.Bandwidth <= 0 || prof.IOPS <= 0 || prof.QueueDepth <= 0 {
		panic("blockdev: invalid profile")
	}
	return &Device{
		env:   env,
		prof:  prof,
		slots: sim.NewResource(env, prof.QueueDepth),
		bus:   sim.NewResource(env, 1),
	}
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats clears the device counters.
func (d *Device) ResetStats() { d.stats = Stats{} }

// SetFault installs (or, with nil, removes) a fault hook consulted on
// every request.
func (d *Device) SetFault(f FaultFn) { d.fault = f }

// transferTime is the serialized service time for one request.
func (d *Device) transferTime(size int64) time.Duration {
	xfer := time.Duration(float64(size) / float64(d.prof.Bandwidth) * float64(time.Second))
	iop := time.Second / time.Duration(d.prof.IOPS)
	return xfer + iop
}

// Read performs a read of size bytes and blocks p for its duration,
// returning the request's total service time (including queueing).
func (d *Device) Read(p *sim.Proc, size int64, class Class) time.Duration {
	return d.request(p, size, class)
}

// Write performs a write of size bytes; the model is symmetric with
// reads, which is adequate for snapshot-file creation (record phase,
// off the critical path of the experiments).
func (d *Device) Write(p *sim.Proc, size int64, class Class) time.Duration {
	return d.request(p, size, class)
}

func (d *Device) request(p *sim.Proc, size int64, class Class) time.Duration {
	if size <= 0 {
		return 0
	}
	var slow float64
	var fail bool
	if d.fault != nil {
		slow, fail = d.fault(class, size)
	}
	if slow < 1 {
		slow = 1
	}
	start := d.env.Now()
	d.slots.Acquire(p)
	queued := d.env.Now() - start
	// Access latency jitters ±5% (device and interconnect variance),
	// deterministically per environment seed.
	lat := d.prof.Latency
	lat += time.Duration((d.env.Rand().Float64()*2 - 1) * 0.05 * float64(lat))
	p.Sleep(time.Duration(float64(lat) * slow))
	d.bus.Acquire(p)
	xfer := time.Duration(float64(d.transferTime(size)) * slow)
	p.Sleep(xfer)
	d.bus.Release()
	d.slots.Release()

	d.stats.Requests++
	d.stats.Bytes += size
	d.stats.QueueWait += queued
	d.stats.Busy += xfer
	d.stats.ByClass[class].Requests++
	d.stats.ByClass[class].Bytes += size
	if fail {
		d.stats.Errors++
		d.stats.ByClass[class].Errors++
	}
	return d.env.Now() - start
}
