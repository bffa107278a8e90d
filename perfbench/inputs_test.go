package main

import (
	"io"
	"reflect"
	"testing"
	"time"

	"speed/internal/workload"
)

func TestInputsFollowSeed(t *testing.T) {
	gen := map[string]func(seed int64) any{
		"text inputs": func(seed int64) any {
			in, want, n := textInputs(workload.New(seed), 8)
			return []any{in, want, n}
		},
		"zipf picks": func(seed int64) any {
			return hitPicks(workload.New(seed), 2, 64)
		},
		"write coins": func(seed int64) any { return writeCoins(seed, 2) },
		"corpus": func(seed int64) any {
			c, err := newCorpus(seed, 4)
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
	for name, g := range gen {
		if !reflect.DeepEqual(g(1), g(1)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(g(1), g(2)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

// runOnce sets w up from seed and runs it for d.
func runOnce(t *testing.T, w workloadRunner, seed int64, d time.Duration) *phase {
	t.Helper()
	if err := w.setup(seed, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	p, err := runPhase(w, d)
	if err != nil {
		t.Fatal(err)
	}
	if p.errors+p.wrong > 0 {
		t.Fatalf("%d errors, %d wrong outputs", p.errors, p.wrong)
	}
	return p
}

func TestChunkCountsRepeatExactly(t *testing.T) {
	var first *phase
	for run := 0; run < 2; run++ {
		p := runOnce(t, &chunkNearDup{docs: 12}, 5, 300*time.Millisecond)
		if p.exact == nil {
			t.Fatal("no complete pass")
		}
		if first == nil {
			first = p
			continue
		}
		a, b := first.exact.Runtime, p.exact.Runtime
		for _, c := range []struct {
			name string
			a, b int64
		}{
			{"chunks cut", first.exactChunksCut, p.exactChunksCut},
			{"chunked puts", a.ChunkedPuts, b.ChunkedPuts},
			{"chunks skipped", a.ChunksSkipped, b.ChunksSkipped},
			{"chunks fetched", a.ChunksFetched, b.ChunksFetched},
			{"chunk cache hits", a.ChunkCacheHits, b.ChunkCacheHits},
			{"store puts", first.exact.Store.Puts, p.exact.Store.Puts},
		} {
			if c.a != c.b {
				t.Errorf("%s: %d then %d", c.name, c.a, c.b)
			}
		}
		ra, rb := ratio(first.storedBytes, first.resultBytes), ratio(p.storedBytes, p.resultBytes)
		if ra != rb {
			t.Errorf("stored bytes per result byte: %v then %v", ra, rb)
		}
	}
}

func TestCrossingsPerCallRepeatWithOneCaller(t *testing.T) {
	for run := 0; run < 2; run++ {
		p := runOnce(t, &hitSmall{inputs: 32, callers: 1}, 9, 100*time.Millisecond)
		calls := p.delta.Runtime.Calls
		if calls == 0 || int64(len(p.samples)) != calls {
			t.Fatalf("%d samples for %d calls", len(p.samples), calls)
		}
		// A reuse is one ECALL into the app enclave and one OCALL out to
		// the store; the store serves it with one ECALL.
		if p.delta.AppCrossings != 2*calls || p.delta.StoreECalls != calls {
			t.Errorf("run %d: %d app crossings and %d store ECALLs for %d calls, want 2 and 1 per call",
				run, p.delta.AppCrossings, p.delta.StoreECalls, calls)
		}
	}
}

func TestWrongOutputFailsRun(t *testing.T) {
	w := &hitSmall{inputs: 16, callers: 1}
	if err := w.setup(3, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for i := range w.want {
		w.want[i]++
	}
	p, err := runPhase(w, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	res := checkPhase(io.Discard, w, p, "")
	if res.Correct || res.Failed != int64(len(p.samples)) || p.wrong == 0 {
		t.Errorf("run with every output wrong: correct=%v failed=%d of %d", res.Correct, res.Failed, len(p.samples))
	}
}
