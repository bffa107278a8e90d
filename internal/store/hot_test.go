package store

import (
	"fmt"
	"testing"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/wire"
)

// The store layer's hot paths as Server.Dispatch runs them, minus the
// socket: one GET and the three batch requests, at 4 KiB blobs and 16
// items per batch (about one 128 KiB chunked document). Simulated SGX
// costs are off, so the numbers time the code rather than spin-waited
// transitions; the ecalls/op metric reports the crossings the simulator
// would charge. `make bench-regress` pins these against
// bench/baseline.txt.

const (
	hotBlobBytes = 4 << 10
	hotBatch     = 16
)

// hotDispatch is a memory-engine store behind a Server used only for
// Dispatch.
type hotDispatch struct {
	enc   *enclave.Enclave
	st    *Store
	srv   *Server
	owner enclave.Measurement
}

func newHotDispatch(b *testing.B) *hotDispatch {
	b.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	enc, err := p.Create("bench-store", []byte("store code"))
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	st, err := New(Config{Enclave: enc})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	return &hotDispatch{
		enc:   enc,
		st:    st,
		srv:   NewServer(st, nil, WithLogf(func(string, ...any) {})),
		owner: ownerOf("bench-app"),
	}
}

// hotItems makes n distinct 4 KiB items under a prefix.
func hotItems(prefix string, n int) ([]mle.Tag, []wire.PutItem) {
	blob := make([]byte, hotBlobBytes)
	tags := make([]mle.Tag, n)
	items := make([]wire.PutItem, n)
	for i := range tags {
		tags[i] = tagOf(fmt.Sprintf("%s-%d", prefix, i))
		items[i] = wire.PutItem{Tag: tags[i], Sealed: mle.Sealed{
			Challenge:  []byte("challenge-16byte"),
			WrappedKey: []byte("wrappedkey16byte"),
			Blob:       blob,
		}}
	}
	return tags, items
}

// populate stores the items, failing the benchmark on any rejection.
func (h *hotDispatch) populate(b *testing.B, items []wire.PutItem) {
	b.Helper()
	res, err := h.st.PutBatchAs(h.owner, items)
	if err != nil {
		b.Fatalf("PutBatchAs: %v", err)
	}
	for _, r := range res {
		if !r.OK {
			b.Fatalf("put rejected: %s", r.Err)
		}
	}
}

// run times dispatching next(i) b.N times and reports ecalls/op.
func (h *hotDispatch) run(b *testing.B, next func(i int) wire.Message) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	before := h.enc.Metrics().ECalls
	for i := 0; i < b.N; i++ {
		if _, err := h.srv.Dispatch(h.owner, next(i)); err != nil {
			b.Fatalf("Dispatch: %v", err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(h.enc.Metrics().ECalls-before)/float64(b.N), "ecalls/op")
}

// hotResident is the number of stored items the read benchmarks cycle
// through.
const hotResident = 512

func BenchmarkHotDispatchGet(b *testing.B) {
	h := newHotDispatch(b)
	tags, items := hotItems("get", hotResident)
	h.populate(b, items)
	h.run(b, func(i int) wire.Message { return wire.GetRequest{Tag: tags[i%hotResident]} })
}

func BenchmarkHotDispatchGetBatch(b *testing.B) {
	h := newHotDispatch(b)
	tags, items := hotItems("get-batch", hotResident)
	h.populate(b, items)
	h.run(b, func(i int) wire.Message {
		start := i * hotBatch % hotResident
		return wire.BatchGetRequest{Tags: tags[start : start+hotBatch]}
	})
}

func BenchmarkHotDispatchHasBatch(b *testing.B) {
	h := newHotDispatch(b)
	tags, items := hotItems("has-batch", hotResident)
	h.populate(b, items)
	h.run(b, func(i int) wire.Message {
		start := i * hotBatch % hotResident
		return wire.HasBatchRequest{Tags: tags[start : start+hotBatch]}
	})
}

// BenchmarkHotDispatchPutBatch uploads 16 fresh items per op. Every
// hotResident/16 ops the uploaded items are removed again, untimed, so
// the store's size — and the cost of a fresh insert — stays bounded
// however large b.N grows.
func BenchmarkHotDispatchPutBatch(b *testing.B) {
	h := newHotDispatch(b)
	const perCycle = hotResident / hotBatch
	rounds := make([][]wire.PutItem, perCycle)
	for r := range rounds {
		_, rounds[r] = hotItems(fmt.Sprintf("put-batch-%d", r), hotBatch)
	}
	h.run(b, func(i int) wire.Message {
		if i > 0 && i%perCycle == 0 {
			b.StopTimer()
			for _, items := range rounds {
				for _, it := range items {
					h.st.remove(it.Tag, reasonEvict)
				}
			}
			b.StartTimer()
		}
		return wire.BatchPutRequest{Items: rounds[i%perCycle]}
	})
}
