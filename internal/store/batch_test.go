package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/wire"
)

// The batch methods (GetBatchAs, HasBatchAs, PutBatchAs) must behave
// exactly like n single-tag calls in item order. These tests drive two
// identically configured stores with the same operation stream — one
// through the batch methods, one through the single-tag methods — and
// compare every per-item result, the Stats, the per-app quota bytes and
// the final contents.

// fakeClock is a store clock that only moves when the test says so.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

// lossyBlobs is untrusted blob storage that has lost every blob whose
// content starts with "lost", turning those memory-engine entries
// dangling.
type lossyBlobs struct{ *MemBlobStore }

func (b lossyBlobs) Get(id BlobID) ([]byte, error) {
	data, err := b.MemBlobStore.Get(id)
	if err == nil && bytes.HasPrefix(data, []byte("lost")) {
		return nil, errors.New("blob lost")
	}
	return data, err
}

// tagAuth denies app every tag whose first byte is a multiple of 3,
// so one batch mixes authorized and unauthorized tags.
type tagAuth struct{ app enclave.Measurement }

func (a tagAuth) Authorize(app enclave.Measurement, tag mle.Tag, _ Permission) error {
	if app == a.app && tag[0]%3 == 0 {
		return ErrUnauthorized
	}
	return nil
}

var (
	diffApps = [2]enclave.Measurement{ownerOf("app-open"), ownerOf("app-restricted")}
	diffTTL  = 10 * time.Second
)

// batchVariant is one store configuration the differential test runs.
type batchVariant struct {
	name string
	log  bool
	cfg  func(Config) Config
}

var batchVariants = []batchVariant{
	{name: "memory/plain", cfg: func(c Config) Config { return c }},
	{name: "memory/policy", cfg: policyConfig},
	{name: "memory/oblivious", cfg: func(c Config) Config {
		c = policyConfig(c)
		c.Oblivious = true
		return c
	}},
	{name: "memory/caps", cfg: capsConfig},
	{name: "log/policy", log: true, cfg: policyConfig},
	{name: "log/oblivious", log: true, cfg: func(c Config) Config {
		c = policyConfig(c)
		c.Oblivious = true
		return c
	}},
	{name: "log/caps", log: true, cfg: capsConfig},
}

// policyConfig turns on every per-item policy: TTL expiry, per-tag
// authorization, and both quota kinds.
func policyConfig(c Config) Config {
	c.TTL = diffTTL
	c.Auth = tagAuth{app: diffApps[1]}
	c.Quota = QuotaConfig{MaxBytesPerApp: 700, PutRatePerSec: 2, PutBurst: 12}
	return c
}

// capsConfig adds global MaxEntries/MaxBlobBytes caps to the policies,
// so PUT_BATCH evicts.
func capsConfig(c Config) Config {
	c = policyConfig(c)
	c.MaxEntries = 9
	c.MaxBlobBytes = 500
	return c
}

// newDiffStore opens one store of the variant on its own platform and
// clock.
func newDiffStore(t *testing.T, v batchVariant, clock *fakeClock) *Store {
	t.Helper()
	cfg := v.cfg(Config{
		Enclave: testEnclave(t),
		Blobs:   lossyBlobs{NewMemBlobStore()},
		Shards:  4,
		Now:     clock.now,
	})
	if v.log {
		cfg.Engine = EngineLog
		cfg.DataDir = t.TempDir()
		cfg.Fsync = "none"
		cfg.MemtableBytes = 2 << 10 // flush often, so lookups reach segments
		cfg.CacheBytes = 1 << 10
		cfg.CompactInterval = -1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// batchOp is one step of the operation stream.
type batchOp struct {
	kind  string // "get", "has", "put" or "tick"
	app   enclave.Measurement
	tags  []mle.Tag
	items []wire.PutItem
	tick  time.Duration
}

// diffPair is the store under test (batch methods) and its reference
// (single-tag calls).
type diffPair struct {
	v                     batchVariant
	batch, single         *Store
	batchClock, singleClk *fakeClock
}

func newDiffPair(t *testing.T, v batchVariant) *diffPair {
	start := time.Unix(1_700_000_000, 0)
	p := &diffPair{v: v, batchClock: &fakeClock{start}, singleClk: &fakeClock{start}}
	p.batch = newDiffStore(t, v, p.batchClock)
	p.single = newDiffStore(t, v, p.singleClk)
	return p
}

// apply runs op on both stores and fails on any difference.
func (p *diffPair) apply(t *testing.T, step int, op batchOp) {
	t.Helper()
	var got, want any
	var err error
	switch op.kind {
	case "tick":
		p.batchClock.t = p.batchClock.t.Add(op.tick)
		p.singleClk.t = p.singleClk.t.Add(op.tick)
		return
	case "get":
		got, err = p.batch.GetBatchAs(op.app, op.tags)
		want = singleGets(t, p.single, op.app, op.tags)
	case "has":
		got, err = p.batch.HasBatchAs(op.app, op.tags)
		want = singleHas(t, p.single, op.app, op.tags)
	case "put":
		got, err = p.batch.PutBatchAs(op.app, op.items)
		want = singlePuts(t, p.single, op.app, op.items)
	}
	if err != nil {
		t.Fatalf("step %d %s: batch: %v", step, op.kind, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d %s: batch results\n%+v\nwant (single calls)\n%+v", step, op.kind, got, want)
	}
	if g, w := p.batch.Stats(), p.single.Stats(); g != w {
		t.Fatalf("step %d %s: batch Stats %+v, want %+v", step, op.kind, g, w)
	}
	for _, app := range diffApps {
		if g, w := p.batch.AppBytes(app), p.single.AppBytes(app); g != w {
			t.Fatalf("step %d %s: batch AppBytes(%v) = %d, want %d", step, op.kind, app, g, w)
		}
	}
	if op.kind == "put" {
		cfg := p.batch.cfg
		st := p.batch.Stats()
		if (cfg.MaxEntries > 0 && st.Entries > cfg.MaxEntries) || (cfg.MaxBlobBytes > 0 && st.BlobBytes > cfg.MaxBlobBytes) {
			t.Fatalf("step %d: caps broken after PUT_BATCH: %d entries, %d blob bytes", step, st.Entries, st.BlobBytes)
		}
	}
}

// checkContents compares the final contents of both stores.
func (p *diffPair) checkContents(t *testing.T) {
	t.Helper()
	dump := func(s *Store) []ExportEntry {
		entries, err := s.Export(0)
		if err != nil {
			t.Fatalf("Export: %v", err)
		}
		sort.Slice(entries, func(i, j int) bool {
			return bytes.Compare(entries[i].Tag[:], entries[j].Tag[:]) < 0
		})
		return entries
	}
	if got, want := dump(p.batch), dump(p.single); !reflect.DeepEqual(got, want) {
		t.Fatalf("final contents differ:\nbatch  %+v\nsingle %+v", got, want)
	}
}

// singleGets is GET_BATCH as n GetAs calls, with the
// deny-without-information mapping of a single GET.
func singleGets(t *testing.T, s *Store, app enclave.Measurement, tags []mle.Tag) []wire.GetResult {
	t.Helper()
	out := make([]wire.GetResult, len(tags))
	for i, tag := range tags {
		sealed, found, err := s.GetAs(app, tag)
		switch {
		case errors.Is(err, ErrUnauthorized):
		case err != nil:
			t.Fatalf("GetAs: %v", err)
		default:
			out[i] = wire.GetResult{Found: found, Sealed: sealed}
		}
	}
	return out
}

// singleHas is HAS_BATCH as n one-tag probes.
func singleHas(t *testing.T, s *Store, app enclave.Measurement, tags []mle.Tag) []bool {
	t.Helper()
	out := make([]bool, len(tags))
	for i := range tags {
		p, err := s.HasBatchAs(app, tags[i:i+1])
		if err != nil {
			t.Fatalf("HasBatchAs: %v", err)
		}
		out[i] = p[0]
	}
	return out
}

// singlePuts is PUT_BATCH as n Put/PutReplace calls, with a single
// PUT's denial mapping.
func singlePuts(t *testing.T, s *Store, app enclave.Measurement, items []wire.PutItem) []wire.PutResult {
	t.Helper()
	out := make([]wire.PutResult, len(items))
	for i, it := range items {
		put := s.Put
		if it.Replace {
			put = s.PutReplace
		}
		_, err := put(app, it.Tag, it.Sealed)
		switch {
		case errors.Is(err, ErrQuota), errors.Is(err, ErrUnauthorized):
			out[i] = wire.PutResult{Err: err.Error()}
		case err != nil:
			t.Fatalf("Put: %v", err)
		default:
			out[i] = wire.PutResult{OK: true}
		}
	}
	return out
}

// randomOps generates a seeded stream over a small tag pool, so batches
// repeat tags, hit duplicates, and reach expired, dangling and
// unauthorized entries.
func randomOps(seed int64, n int) []batchOp {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]mle.Tag, 20)
	for i := range pool {
		pool[i] = tagOf(fmt.Sprintf("diff-%d-%d", seed, i))
	}
	version := 0
	pickTags := func(max int) []mle.Tag {
		tags := make([]mle.Tag, 1+rng.Intn(max))
		for i := range tags {
			tags[i] = pool[rng.Intn(len(pool))]
		}
		return tags
	}
	ops := make([]batchOp, 0, n)
	for len(ops) < n {
		app := diffApps[rng.Intn(len(diffApps))]
		switch r := rng.Intn(20); {
		case r < 7:
			tags := pickTags(8)
			items := make([]wire.PutItem, len(tags))
			for i, tag := range tags {
				version++
				prefix := "v"
				if rng.Intn(6) == 0 {
					prefix = "lost"
				}
				blob := fmt.Sprintf("%s%d-%s", prefix, version, bytes.Repeat([]byte("x"), rng.Intn(60)))
				items[i] = wire.PutItem{Tag: tag, Sealed: sealedOf(blob), Replace: rng.Intn(7) == 0}
			}
			ops = append(ops, batchOp{kind: "put", app: app, items: items})
		case r < 14:
			ops = append(ops, batchOp{kind: "get", app: app, tags: pickTags(10)})
		case r < 18:
			ops = append(ops, batchOp{kind: "has", app: app, tags: pickTags(10)})
		default:
			ops = append(ops, batchOp{kind: "tick", tick: time.Duration(1+rng.Intn(6)) * time.Second})
		}
	}
	return ops
}

func TestBatchMatchesSingleCalls(t *testing.T) {
	for _, v := range batchVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				p := newDiffPair(t, v)
				for step, op := range randomOps(seed, 80) {
					p.apply(t, step, op)
				}
				p.checkContents(t)
			}
		})
	}
}

// TestBatchRepeatedTagInOrder pins the order-dependent cases a naive
// batch would get wrong: running every removal before any insert,
// counting every lookup of a dangling tag, or checking quota before the
// duplicates ahead of it were refunded.
func TestBatchRepeatedTagInOrder(t *testing.T) {
	a, d, e := tagOf("repeat-a"), tagOf("repeat-dangling"), tagOf("repeat-expiring")
	app := diffApps[0]
	put := func(items ...wire.PutItem) batchOp { return batchOp{kind: "put", app: app, items: items} }
	get := func(tags ...mle.Tag) batchOp { return batchOp{kind: "get", app: app, tags: tags} }
	item := func(tag mle.Tag, blob string, replace bool) wire.PutItem {
		return wire.PutItem{Tag: tag, Sealed: sealedOf(blob), Replace: replace}
	}
	x, y := tagOf("refund-x"), tagOf("refund-y")
	blob300 := func(s string) string { return s + string(bytes.Repeat([]byte("."), 300-len(s))) }
	script := []batchOp{
		// A duplicate gives its quota bytes back before the next item's
		// quota check: y fits in the 700-byte quota only after x's
		// refund.
		put(item(x, blob300("x"), false)),
		put(item(x, blob300("x again"), false), item(y, blob300("y"), false)),
		put(item(a, "first", false), item(a, "second", false)),
		get(a),
		put(item(a, "third", false), item(a, "fourth", true)),
		get(a, a),
		put(item(d, "lost-value", false), item(e, "short-lived", false)),
		get(d, d),
		{kind: "tick", tick: 2 * diffTTL},
		get(e, e),
	}
	for _, v := range batchVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			p := newDiffPair(t, v)
			for step, op := range script {
				p.apply(t, step, op)
			}
			p.checkContents(t)
			entries, err := p.batch.Export(0)
			if err != nil {
				t.Fatalf("Export: %v", err)
			}
			for _, en := range entries {
				if en.Tag == a && string(en.Sealed.Blob) != "fourth" {
					t.Errorf("stored version of a = %q, want the replacing \"fourth\"", en.Sealed.Blob)
				}
			}
		})
	}
}

// TestBatchConcurrent runs overlapping batches from several goroutines:
// a tag two batches race to upload is installed once, and the loser is
// counted as a duplicate whose blob and enclave charge are released.
func TestBatchConcurrent(t *testing.T) {
	for _, v := range []batchVariant{batchVariants[0], {name: "log/plain", log: true, cfg: batchVariants[0].cfg}} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			s := newDiffStore(t, v, &fakeClock{time.Unix(1_700_000_000, 0)})
			const workers, batches, perBatch = 4, 40, 8
			pool := make([]mle.Tag, 48)
			for i := range pool {
				pool[i] = tagOf(fmt.Sprintf("concurrent-%d", i))
			}
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for b := 0; b < batches; b++ {
						items := make([]wire.PutItem, perBatch)
						tags := make([]mle.Tag, perBatch)
						for i := range items {
							tags[i] = pool[rng.Intn(len(pool))]
							items[i] = wire.PutItem{Tag: tags[i], Sealed: sealedOf("v")}
						}
						if _, err := s.PutBatchAs(diffApps[0], items); err != nil {
							errs <- err
							return
						}
						if _, err := s.GetBatchAs(diffApps[0], tags); err != nil {
							errs <- err
							return
						}
						if _, err := s.HasBatchAs(diffApps[0], tags); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Puts != int64(st.Entries) || st.Puts+st.PutDupes != workers*batches*perBatch {
				t.Errorf("Stats %+v: want Puts = Entries and Puts+PutDupes = %d", st, workers*batches*perBatch)
			}
			if want := int64(st.Entries) * int64(len("v")); st.BlobBytes != want || s.AppBytes(diffApps[0]) != want {
				t.Errorf("BlobBytes %d, AppBytes %d, want %d", st.BlobBytes, s.AppBytes(diffApps[0]), want)
			}
		})
	}
}
