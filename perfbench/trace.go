package main

import (
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"speed/internal/dedup"
	"speed/internal/mle"
)

// Store operations the timed client reports.
const (
	opGet      = "get"
	opPut      = "put"
	opGetBatch = "get_batch"
	opPutBatch = "put_batch"
	opHasBatch = "has_batch"
)

// opSpan is one store operation inside a call, offset from the call's
// start.
type opSpan struct {
	name       string
	start, dur time.Duration
}

// callTrace is the span tree of one Execute call, recorded from
// outside the runtime: the Execute span with its compute child (timed
// inside the compute callback) and its client children (timed by
// timedClient).
type callTrace struct {
	tag     mle.Tag
	begin   time.Time
	lat     time.Duration
	compute time.Duration
	client  time.Duration
	ops     []opSpan
	outcome dedup.Outcome
}

// self is the Execute span minus its compute and client children.
func (c *callTrace) self() time.Duration { return c.lat - c.compute - c.client }

// tracer keeps every span of a traced phase in memory.
//
// A client operation carries no call identifier, so it is attributed
// by the primary tag that GET and PUT name: among the calls in flight
// with that tag, a GET goes to the earliest that has not yet touched
// the store, and a PUT to the earliest that has. (Two calls of one tag
// overlap when the second coalesces onto the first, or when the first
// is still returning.) Batch operations name only chunk tags and go to
// the single call in flight. Operations that match no call are counted
// as unattributed; they still enter the per-operation latencies.
type tracer struct {
	mu           sync.Mutex
	byTag        map[mle.Tag][]*callTrace
	active       map[*callTrace]struct{}
	calls        []*callTrace
	ops          map[string][]time.Duration
	unattributed int
}

func newTracer() *tracer {
	t := &tracer{}
	t.reset()
	return t
}

// reset drops everything recorded so far, e.g. the spans of set-up.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byTag = make(map[mle.Tag][]*callTrace)
	t.active = make(map[*callTrace]struct{})
	t.calls = nil
	t.ops = make(map[string][]time.Duration)
	t.unattributed = 0
}

// begin opens the span of a call with the given primary tag.
func (t *tracer) begin(tag mle.Tag) *callTrace {
	if t == nil {
		return nil
	}
	c := &callTrace{tag: tag, begin: time.Now()}
	t.mu.Lock()
	t.byTag[tag] = append(t.byTag[tag], c)
	t.active[c] = struct{}{}
	t.mu.Unlock()
	return c
}

// end closes the span; failed calls are dropped from the span set.
func (t *tracer) end(c *callTrace, lat, compute time.Duration, outcome dedup.Outcome, ok bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	same := t.byTag[c.tag]
	for i, o := range same {
		if o == c {
			same = append(same[:i], same[i+1:]...)
			break
		}
	}
	if len(same) == 0 {
		delete(t.byTag, c.tag)
	} else {
		t.byTag[c.tag] = same
	}
	delete(t.active, c)
	c.lat, c.compute, c.outcome = lat, compute, outcome
	if ok {
		t.calls = append(t.calls, c)
	}
}

// owner finds the call a client operation belongs to; t.mu is held.
func (t *tracer) owner(name string, tag *mle.Tag) *callTrace {
	if tag != nil {
		same := t.byTag[*tag]
		for _, c := range same {
			if (len(c.ops) == 0) == (name == opGet) {
				return c
			}
		}
		if len(same) > 0 {
			return same[0]
		}
	}
	if len(t.active) == 1 {
		for c := range t.active {
			return c
		}
	}
	return nil
}

// op records one client operation that started at start and has just
// returned. tag is the primary tag for GET and PUT, nil for batches.
func (t *tracer) op(name string, tag *mle.Tag, start time.Time) {
	if t == nil {
		return
	}
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops[name] = append(t.ops[name], d)
	c := t.owner(name, tag)
	if c == nil {
		t.unattributed++
		return
	}
	c.client += d
	c.ops = append(c.ops, opSpan{name: name, start: start.Sub(c.begin), dur: d})
}

// pause is one GC stop-the-world pause.
type pause struct{ start, end time.Time }

// gcPauses returns the process's recent GC pauses (the runtime keeps
// the last 256).
func gcPauses() []pause {
	var s debug.GCStats
	debug.ReadGCStats(&s)
	ps := make([]pause, len(s.PauseEnd))
	for i, end := range s.PauseEnd {
		ps[i] = pause{start: end.Add(-s.Pause[i]), end: end}
	}
	return ps
}

func overlapsPause(c *callTrace, ps []pause) bool {
	end := c.begin.Add(c.lat)
	for _, p := range ps {
		if p.start.Before(end) && p.end.After(c.begin) {
			return true
		}
	}
	return false
}

func sortedOutcomes(n map[dedup.Outcome]int64) []dedup.Outcome {
	var os []dedup.Outcome
	for o := range n {
		os = append(os, o)
	}
	sort.Slice(os, func(i, j int) bool { return os[i] < os[j] })
	return os
}

// misattributed counts traced calls whose store operations cannot all
// be theirs: a call that is not coalesced issues exactly one GET, for
// its primary tag, and a coalesced call issues none.
func (t *tracer) misattributed() int {
	n := 0
	for _, c := range t.calls {
		gets, want := 0, 1
		for _, o := range c.ops {
			if o.name == opGet {
				gets++
			}
		}
		if c.outcome == dedup.OutcomeCoalesced {
			want = 0
		}
		if gets != want {
			n++
		}
	}
	return n
}
