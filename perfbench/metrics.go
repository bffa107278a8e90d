package main

import (
	"math"
	"sort"
	"time"

	"speed/internal/dedup"
	"speed/internal/enclave"
)

// metric is one reported value. n is the number of samples behind a
// sample statistic (0 for counts and ratios); ok is false when the
// workload produced no samples for it, and the metric is then reported
// as absent rather than 0. Listed metrics are the ones BENCHMARK.json
// names and the JSON result carries.
type metric struct {
	name, unit string
	value      float64
	n          int
	ok         bool
	listed     bool
	note       string
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedUS(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = us(d)
	}
	sort.Float64s(v)
	return v
}

// stat is the q-quantile of sorted samples; absent when there are none.
func stat(sorted []float64, q float64) metric {
	if len(sorted) == 0 {
		return metric{}
	}
	return metric{value: quantile(sorted, q), n: len(sorted), ok: true}
}

// count is a count or ratio; absent when its base was zero.
func count(v float64) metric {
	return metric{value: v, ok: !math.IsNaN(v) && !math.IsInf(v, 0)}
}

func named(name, unit string, m metric) metric {
	m.name, m.unit = name, unit
	return m
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// endToEnd computes the metrics a user of the system sees from an
// untraced phase. missSamples are the computed calls behind
// miss_overhead_p50_us when the timed phase has none (hit-small: its
// set-up pre-population).
func endToEnd(p *phase, setups []time.Duration, missSamples []callSample, missNote string) []metric {
	var all, reused, overhead []time.Duration
	for _, s := range p.samples {
		all = append(all, s.lat)
		if s.outcome == dedup.OutcomeReused {
			reused = append(reused, s.lat)
		}
		if s.outcome == dedup.OutcomeComputed {
			overhead = append(overhead, s.lat-s.compute)
		}
	}
	if len(overhead) == 0 {
		for _, s := range missSamples {
			overhead = append(overhead, s.lat-s.compute)
		}
	} else {
		missNote = ""
	}
	calls := int64(len(p.samples))
	lat := sortedUS(all)
	miss := named("miss_overhead_p50_us", "us", stat(sortedUS(overhead), 0.5))
	miss.note = missNote
	// call_p99_us is printed but not listed: on a shared 2-vCPU VM it
	// moved by a third between runs of the same code, more than any
	// bound allows; call_p95_us is the gated tail.
	p99 := named("call_p99_us", "us", stat(lat, 0.99))
	p99.note = "not gated: too noisy between runs"
	ms := []metric{
		{name: "setup_s", unit: "s", value: median(setups).Seconds(), n: len(setups), ok: true},
		{name: "calls_per_s", unit: "1/s", value: p.callsPerSecond(), n: len(p.samples), ok: calls > 0},
		named("call_p50_us", "us", stat(lat, 0.5)),
		named("call_p95_us", "us", stat(lat, 0.95)),
		p99,
		named("reuse_p50_us", "us", stat(sortedUS(reused), 0.5)),
		miss,
		named("wire_bytes_per_call", "B/call", count(float64(p.delta.WireBytes)/float64(calls))),
		named("stored_bytes_per_result_byte", "B/B", count(ratio(p.storedBytes, p.resultBytes))),
		named("heap_mb", "MiB", count(float64(p.heapPeak)/(1<<20))),
		named("epc_mb", "MiB", count(float64(p.epcPeak)/(1<<20))),
	}
	for i := range ms {
		ms[i].listed = ms[i].name != "call_p99_us"
	}
	return ms
}

// layerInput is what the per-layer metrics are computed from: the
// traced phase with its spans, and the untraced phase of the same run.
type layerInput struct {
	traced, untraced *phase
	tr               *tracer
}

func (l *layerInput) calls() int64 { return l.traced.delta.Runtime.Calls }

func (l *layerInput) perCall(v int64) float64 { return ratio(v, l.calls()) }

func (l *layerInput) crossingsPerCall() float64 { return l.perCall(l.traced.delta.AppCrossings) }

// transitionUS is the simulated cost of the app-side crossings of a
// mean call: each ECALL or OCALL crosses in and out.
func (l *layerInput) transitionUS() float64 {
	return l.crossingsPerCall() * 2 * us(enclave.DefaultTransitionCost)
}

func (l *layerInput) spans(f func(*callTrace) time.Duration) []float64 {
	ds := make([]time.Duration, len(l.tr.calls))
	for i, c := range l.tr.calls {
		ds[i] = f(c)
	}
	return sortedUS(ds)
}

// means are the mean Execute, compute and client time per traced call.
func (l *layerInput) means() (lat, compute, client float64) {
	n := float64(len(l.tr.calls))
	for _, c := range l.tr.calls {
		lat += us(c.lat)
		compute += us(c.compute)
		client += us(c.client)
	}
	return lat / n, compute / n, client / n
}

// layerMetric is a per-layer metric: its unit, the end-to-end metric
// and workload it should move, and whether BENCHMARK.json lists it
// (only metrics defined on every workload are listed there; the rest
// are printed in the traced report).
type layerMetric struct {
	name, unit, moves string
	listed            bool
	value             func(l *layerInput) metric
}

var layerMetrics = []layerMetric{
	{name: "dedup.execute_self_us_p50", unit: "us", listed: true,
		moves: "reuse_p50_us, call_p95_us on hit-small; miss_overhead_p50_us on write-log",
		value: func(l *layerInput) metric {
			return stat(l.spans((*callTrace).self), 0.5)
		}},
	{name: "dedup.execute_self_us_p99", unit: "us", listed: true,
		moves: "reuse_p50_us, call_p95_us on hit-small; miss_overhead_p50_us on write-log",
		value: func(l *layerInput) metric {
			return stat(l.spans((*callTrace).self), 0.99)
		}},
	{name: "dedup.residual_us_per_call", unit: "us", listed: true,
		moves: "call_p50_us on hit-small",
		value: func(l *layerInput) metric {
			lat, compute, client := l.means()
			return count(lat - compute - client - l.transitionUS())
		}},
	{name: "dedup.coalesced_ratio", unit: "ratio", listed: true,
		moves: "calls_per_s on hit-small",
		value: func(l *layerInput) metric {
			return count(l.perCall(l.traced.delta.Runtime.Coalesced))
		}},
	{name: "dedup.verify_failures", unit: "count", listed: true,
		moves: "error_ratio on all workloads (must be 0)",
		value: func(l *layerInput) metric {
			return count(float64(l.traced.delta.Runtime.VerifyFailures))
		}},
	{name: "dedup.store_failures", unit: "count", listed: true,
		moves: "error_ratio on all workloads (must be 0)",
		value: func(l *layerInput) metric {
			r := l.traced.delta.Runtime
			return count(float64(r.StoreFailures + r.Degraded + r.Retries))
		}},
	{name: "enclave.app_crossings_per_call", unit: "1/call", listed: true,
		moves: "reuse_p50_us on hit-small; miss_overhead_p50_us on write-log",
		value: func(l *layerInput) metric { return count(l.crossingsPerCall()) }},
	{name: "enclave.store_ecalls_per_call", unit: "1/call", listed: true,
		moves: "reuse_p50_us on hit-small; miss_overhead_p50_us on write-log",
		value: func(l *layerInput) metric { return count(l.perCall(l.traced.delta.StoreECalls)) }},
	{name: "enclave.transition_us_per_call", unit: "us",
		moves: "call_p50_us on hit-small",
		value: func(l *layerInput) metric { return count(l.transitionUS()) }},
	{name: "enclave.page_faults_per_call", unit: "1/call", listed: true,
		moves: "call_p95_us, epc_mb on chunk-neardup",
		value: func(l *layerInput) metric { return count(l.perCall(l.traced.delta.PageFaults)) }},
	opLatency(opGet, 0.5, true, "reuse_p50_us, call_p95_us on hit-small"),
	opLatency(opGet, 0.99, true, "reuse_p50_us, call_p95_us on hit-small"),
	opLatency(opPut, 0.5, false, "miss_overhead_p50_us, call_p95_us on write-log"),
	opLatency(opPut, 0.99, false, "miss_overhead_p50_us, call_p95_us on write-log"),
	opLatency(opGetBatch, 0.5, false, "call_p50_us on chunk-neardup"),
	opLatency(opPutBatch, 0.5, false, "call_p50_us on chunk-neardup"),
	opLatency(opHasBatch, 0.5, false, "call_p50_us on chunk-neardup"),
	{name: "client.round_trips_per_call", unit: "1/call", listed: true,
		moves: "call_p50_us on all workloads",
		value: func(l *layerInput) metric {
			n := 0
			for _, ops := range l.tr.ops {
				n += len(ops)
			}
			return count(l.perCall(int64(n)))
		}},
	{name: "wire.server_writes_per_call", unit: "1/call", listed: true,
		moves: "reuse_p50_us on hit-small",
		value: func(l *layerInput) metric { return count(l.perCall(l.traced.delta.ServerWrites)) }},
	{name: "wire.server_reads_per_call", unit: "1/call", listed: true,
		moves: "reuse_p50_us on hit-small",
		value: func(l *layerInput) metric { return count(l.perCall(l.traced.delta.ServerReads)) }},
	{name: "store.hit_ratio", unit: "ratio", listed: true,
		moves: "calls_per_s on write-log; wire_bytes_per_call on chunk-neardup",
		value: func(l *layerInput) metric {
			s := l.traced.delta.Store
			return count(ratio(s.Hits, s.Gets))
		}},
	{name: "store.put_dupe_ratio", unit: "ratio",
		moves: "calls_per_s on write-log; wire_bytes_per_call on chunk-neardup",
		value: func(l *layerInput) metric {
			s := l.traced.delta.Store
			return count(ratio(s.PutDupes, s.Puts))
		}},
	{name: "logengine.cache_hit_ratio", unit: "ratio",
		moves: "reuse_p50_us, call_p95_us on write-log",
		value: func(l *layerInput) metric {
			e := l.traced.delta.Engine
			return count(ratio(e.CacheHits, e.CacheHits+e.CacheMisses))
		}},
	{name: "logengine.flushes_per_kput", unit: "1/kput",
		moves: "call_p95_us on write-log",
		value: func(l *layerInput) metric {
			return count(1000 * ratio(l.traced.delta.Engine.Flushes, l.traced.delta.Store.Puts))
		}},
	{name: "logengine.flushes_per_kcall", unit: "1/kcall", listed: true,
		moves: "call_p95_us on write-log (0 on the memory engine)",
		value: func(l *layerInput) metric {
			return count(1000 * l.perCall(l.traced.delta.Engine.Flushes))
		}},
	{name: "logengine.compactions", unit: "count",
		moves: "call_p95_us on write-log (0 on the memory engine)",
		value: func(l *layerInput) metric {
			return count(float64(l.traced.delta.Engine.Compactions))
		}},
	{name: "logengine.space_amp", unit: "B/B",
		moves: "stored_bytes_per_result_byte on write-log",
		value: func(l *layerInput) metric {
			return count(ratio(l.traced.storedBytes, l.traced.logValueBytes))
		}},
	{name: "chunk.skipped_ratio", unit: "ratio",
		moves: "wire_bytes_per_call, stored_bytes_per_result_byte on chunk-neardup",
		value: func(l *layerInput) metric {
			if l.traced.exact == nil {
				return metric{}
			}
			return count(ratio(l.traced.exact.Runtime.ChunksSkipped, l.traced.exactChunksCut))
		}},
	{name: "chunk.cache_hit_ratio", unit: "ratio",
		moves: "call_p50_us, wire_bytes_per_call on chunk-neardup",
		value: func(l *layerInput) metric {
			if l.traced.exact == nil {
				return metric{}
			}
			r := l.traced.exact.Runtime
			return count(ratio(r.ChunkCacheHits, r.ChunkCacheHits+r.ChunksFetched))
		}},
	{name: "chunk.skipped_per_call", unit: "1/call", listed: true,
		moves: "wire_bytes_per_call, stored_bytes_per_result_byte on chunk-neardup (0 without chunking)",
		value: func(l *layerInput) metric { return count(l.perCall(l.traced.delta.Runtime.ChunksSkipped)) }},
	{name: "chunk.fetched_per_call", unit: "1/call", listed: true,
		moves: "call_p50_us, wire_bytes_per_call on chunk-neardup (0 without chunking)",
		value: func(l *layerInput) metric { return count(l.perCall(l.traced.delta.Runtime.ChunksFetched)) }},
	{name: "chunk.cache_hits_per_call", unit: "1/call", listed: true,
		moves: "call_p50_us, wire_bytes_per_call on chunk-neardup (0 without chunking)",
		value: func(l *layerInput) metric { return count(l.perCall(l.traced.delta.Runtime.ChunkCacheHits)) }},
	{name: "compute.us_p50", unit: "us",
		moves: "none: a change here is a workload change",
		value: func(l *layerInput) metric {
			var ds []time.Duration
			for _, c := range l.tr.calls {
				if c.compute > 0 {
					ds = append(ds, c.compute)
				}
			}
			return stat(sortedUS(ds), 0.5)
		}},
	{name: "compute.share", unit: "ratio", listed: true,
		moves: "none: tells which layers can show a gain on each workload",
		value: func(l *layerInput) metric {
			lat, compute, _ := l.means()
			return count(compute / lat)
		}},
	{name: "go.allocs_per_call", unit: "1/call", listed: true,
		moves: "call_p50_us on hit-small; heap_mb, call_p95_us on chunk-neardup",
		value: func(l *layerInput) metric {
			return count(float64(l.untraced.delta.GoAllocs) / float64(l.untraced.delta.Runtime.Calls))
		}},
	{name: "go.alloc_bytes_per_call", unit: "B/call", listed: true,
		moves: "call_p50_us on hit-small; heap_mb, call_p95_us on chunk-neardup",
		value: func(l *layerInput) metric {
			return count(float64(l.untraced.delta.GoAllocBytes) / float64(l.untraced.delta.Runtime.Calls))
		}},
	{name: "go.gc_cycles_per_kcall", unit: "1/kcall", listed: true,
		moves: "call_p50_us on hit-small; heap_mb, call_p95_us on chunk-neardup",
		value: func(l *layerInput) metric {
			return count(1000 * float64(l.untraced.delta.GCCycles) / float64(l.untraced.delta.Runtime.Calls))
		}},
	{name: "go.sched_wait_us_p99", unit: "us", listed: true,
		moves: "call_p95_us on hit-small and write-log",
		value: func(l *layerInput) metric {
			v, n := l.untraced.schedWaitQuantile(0.99)
			m := count(v)
			m.n = n
			return m
		}},
	{name: "trace.overhead_ratio", unit: "ratio", listed: true,
		moves: "none: guards the cost of tracing",
		value: func(l *layerInput) metric {
			return count(l.untraced.callsPerSecond()/l.traced.callsPerSecond() - 1)
		}},
}

func opLatency(op string, q float64, listed bool, moves string) layerMetric {
	suffix := "p50"
	if q == 0.99 {
		suffix = "p99"
	}
	return layerMetric{name: "client." + op + "_us_" + suffix, unit: "us", listed: listed, moves: moves,
		value: func(l *layerInput) metric { return stat(sortedUS(l.tr.ops[op]), q) }}
}

// perLayer evaluates every per-layer metric.
func perLayer(l *layerInput) []metric {
	out := make([]metric, len(layerMetrics))
	for i, lm := range layerMetrics {
		out[i] = named(lm.name, lm.unit, lm.value(l))
		out[i].listed = lm.listed
	}
	return out
}
