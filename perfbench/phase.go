package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"speed/internal/dedup"
	"speed/internal/enclave"
)

// callSample is one completed Execute call as seen by its caller.
type callSample struct {
	lat     time.Duration
	compute time.Duration // 0 when the call's own compute did not run
	outcome dedup.Outcome
}

// phase is everything one timed phase measured. A workload may split
// the phase into several timed intervals (its untimed set-up between
// rounds is excluded); counters are summed over the intervals.
type phase struct {
	samples   []callSample
	errors    int64
	wrong     int64
	elapsed   time.Duration
	delta     counters // activity inside the timed intervals
	epcPeak   int64    // simulated EPC in use, sampled
	heapPeak  uint64
	intervals int

	// storedBytes and resultBytes give stored_bytes_per_result_byte:
	// what the store holds and the plaintext bytes of the distinct
	// results it holds, summed over the stores the phase used.
	storedBytes, resultBytes int64
	// logValueBytes is the log engine's live value bytes, summed like
	// storedBytes, for its space amplification.
	logValueBytes int64

	// exact, when set, holds counters that repeat exactly for a seed
	// (chunk-neardup: its first complete pass), and exactChunksCut the
	// chunks the corpus cuts into in that pass.
	exact          *counters
	exactChunksCut int64

	// schedWait counts, per bucket of schedBuckets, how long goroutines
	// waited runnable for a processor during the phase.
	schedWait    []uint64
	schedBuckets []float64

	// platform is the deployment the current interval runs on, for the
	// sampler.
	platform atomic.Pointer[enclave.Platform]
}

// interval runs one timed interval of the phase against d and returns
// the counter activity inside it.
func (p *phase) interval(d *deployment, run func()) counters {
	p.platform.Store(d.platform)
	before := d.counters()
	start := time.Now()
	run()
	p.elapsed += time.Since(start)
	after := d.counters()
	var delta counters
	addFields(&delta, after, 1)
	addFields(&delta, before, -1)
	addFields(&p.delta, delta, 1)
	p.intervals++
	return delta
}

// add merges a caller's records.
func (p *phase) add(c *caller) {
	p.samples = append(p.samples, c.samples...)
	p.errors += c.errors
	p.wrong += c.wrong
	c.samples, c.errors, c.wrong = nil, 0, 0
}

func (p *phase) outcomes() map[dedup.Outcome]int64 {
	n := make(map[dedup.Outcome]int64)
	for _, s := range p.samples {
		n[s.outcome]++
	}
	return n
}

func (p *phase) callsPerSecond() float64 {
	return float64(len(p.samples)) / p.elapsed.Seconds()
}

// runPhase drives w for d and samples the Go heap and the simulated
// EPC throughout; both are reported as their peaks.
func runPhase(w workloadRunner, d time.Duration) (*phase, error) {
	// Set-up garbage is collected now, not inside the timed window.
	runtime.GC()
	p := &phase{}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			p.heapPeak = max(p.heapPeak, s[0].Value.Uint64())
			if pl := p.platform.Load(); pl != nil {
				p.epcPeak = max(p.epcPeak, pl.EPCUsed())
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	sched := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(sched)
	before := append([]uint64(nil), sched[0].Value.Float64Histogram().Counts...)
	err := w.run(time.Now().Add(d), p)
	metrics.Read(sched)
	h := sched[0].Value.Float64Histogram()
	p.schedBuckets = h.Buckets
	p.schedWait = make([]uint64, len(h.Counts))
	for i, n := range h.Counts {
		p.schedWait[i] = n - before[i]
	}
	close(stop)
	<-done
	return p, err
}

// schedWaitQuantile is the q-quantile of the phase's scheduling waits
// in microseconds, interpolated linearly inside its histogram bucket,
// and the number of waits.
func (p *phase) schedWaitQuantile(q float64) (float64, int) {
	total := uint64(0)
	for _, n := range p.schedWait {
		total += n
	}
	if total == 0 {
		return math.NaN(), 0
	}
	rank := q * float64(total)
	seen := 0.0
	for i, n := range p.schedWait {
		if n > 0 && seen+float64(n) >= rank {
			lo, hi := max(p.schedBuckets[i], 0), p.schedBuckets[i+1]
			if math.IsInf(hi, 1) {
				return lo * 1e6, int(total)
			}
			return (lo + (hi-lo)*(rank-seen)/float64(n)) * 1e6, int(total)
		}
		seen += float64(n)
	}
	return math.NaN(), int(total)
}
