package store_test

import (
	"crypto/sha256"
	"fmt"
	"net"
	"testing"

	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/wire"
)

// batchClient is the batch surface shared by the in-process client and
// the wire client.
type batchClient interface {
	Get(tag mle.Tag) (mle.Sealed, bool, error)
	Put(tag mle.Tag, sealed mle.Sealed, replace bool) error
	GetBatch(tags []mle.Tag) ([]wire.GetResult, error)
	PutBatch(items []wire.PutItem) ([]wire.PutResult, error)
	HasBatch(tags []mle.Tag) ([]bool, error)
}

// crossingSizes are the batch sizes checked: one item, a chunked
// document's worth, and wire.MaxBatchItems.
var crossingSizes = []int{1, 15, wire.MaxBatchItems}

// crossingStore builds a store on its own platform with simulated costs
// off, and a client reaching it either in process or through
// Server.Dispatch over an attested wire channel.
func crossingStore(t *testing.T, engine, via string) (*enclave.Enclave, *store.Store, batchClient) {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	storeEnc, err := p.Create("store", []byte("store code"))
	if err != nil {
		t.Fatal(err)
	}
	appEnc, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := store.Config{Enclave: storeEnc}
	if engine == store.EngineLog {
		cfg.Engine = store.EngineLog
		cfg.DataDir = t.TempDir()
		cfg.Fsync = "none"
		cfg.CompactInterval = -1
	}
	st, err := store.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	if via == "local" {
		return storeEnc, st, dedup.NewLocalClient(st, appEnc.Measurement())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := store.NewServer(st, ln, store.WithLogf(func(string, ...any) {}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve()
	}()
	c, err := dedup.Dial(ln.Addr().String(), appEnc, storeEnc.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		_ = srv.Close()
		<-done
	})
	return storeEnc, st, c
}

// crossingItems makes n fresh items under a prefix.
func crossingItems(prefix string, n int) ([]mle.Tag, []wire.PutItem) {
	tags := make([]mle.Tag, n)
	items := make([]wire.PutItem, n)
	for i := range tags {
		tags[i] = mle.Tag(sha256.Sum256([]byte(fmt.Sprintf("%s-%d", prefix, i))))
		items[i] = wire.PutItem{Tag: tags[i], Sealed: mle.Sealed{
			Challenge:  []byte("challenge-16byte"),
			WrappedKey: []byte("wrappedkey16byte"),
			Blob:       []byte(fmt.Sprintf("value-%s-%d", prefix, i)),
		}}
	}
	return tags, items
}

// ecallsOf runs op and returns the store ECALLs it cost.
func ecallsOf(t *testing.T, enc *enclave.Enclave, op func() error) int64 {
	t.Helper()
	before := enc.Metrics().ECalls
	if err := op(); err != nil {
		t.Fatal(err)
	}
	return enc.Metrics().ECalls - before
}

// batchCrossings measures one batch size: PUT_BATCH of fresh items,
// HAS_BATCH and GET_BATCH of them (from the in-enclave tiers), then —
// after a checkpoint moved the log engine's memtable to a segment —
// GET_BATCH again.
func batchCrossings(t *testing.T, enc *enclave.Enclave, st *store.Store, c batchClient, n int) map[string]int64 {
	t.Helper()
	tags, items := crossingItems(fmt.Sprintf("n%d", n), n)
	got := map[string]int64{}
	got["put_batch"] = ecallsOf(t, enc, func() error {
		res, err := c.PutBatch(items)
		for _, r := range res {
			if !r.OK {
				return fmt.Errorf("put rejected: %s", r.Err)
			}
		}
		return err
	})
	got["has_batch"] = ecallsOf(t, enc, func() error {
		present, err := c.HasBatch(tags)
		for i, p := range present {
			if !p {
				return fmt.Errorf("tag %d absent", i)
			}
		}
		return err
	})
	get := func() error {
		res, err := c.GetBatch(tags)
		for i, r := range res {
			if !r.Found {
				return fmt.Errorf("tag %d not found", i)
			}
		}
		return err
	}
	got["get_batch"] = ecallsOf(t, enc, get)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got["get_batch_cold"] = ecallsOf(t, enc, get)
	return got
}

// TestBatchStoreCrossings pins the store ECALLs a batch request costs:
// a fixed number per request, whatever its item count, through both
// the in-process client and Server.Dispatch over the wire.
func TestBatchStoreCrossings(t *testing.T) {
	for _, engine := range []string{store.EngineMemory, store.EngineLog} {
		for _, via := range []string{"local", "dispatch"} {
			engine, via := engine, via
			t.Run(engine+"/"+via, func(t *testing.T) {
				enc, st, c := crossingStore(t, engine, via)

				// The single-tag path at n = 1, the bound no batch may
				// exceed.
				tags, items := crossingItems("single", 1)
				single := map[string]int64{
					"put": ecallsOf(t, enc, func() error { return c.Put(tags[0], items[0].Sealed, false) }),
					"get": ecallsOf(t, enc, func() error { _, _, err := c.Get(tags[0]); return err }),
				}
				var first map[string]int64
				for _, n := range crossingSizes {
					got := batchCrossings(t, enc, st, c, n)
					t.Logf("n=%d: %v (single %v)", n, got, single)
					if engine == store.EngineMemory {
						want := map[string]int64{"put_batch": 2, "has_batch": 1, "get_batch": 1, "get_batch_cold": 1}
						for op, w := range want {
							if got[op] != w {
								t.Errorf("n=%d: %s cost %d store ECALLs, want %d", n, op, got[op], w)
							}
						}
					}
					if first == nil {
						first = got
						if got["put_batch"] > single["put"] || got["get_batch"] > single["get"] {
							t.Errorf("a batch of one costs more than a single call: batch %v, single %v", got, single)
						}
						continue
					}
					for op, c := range got {
						if c != first[op] {
							t.Errorf("n=%d: %s cost %d store ECALLs, but %d at n=1", n, op, c, first[op])
						}
					}
				}
			})
		}
	}
}
