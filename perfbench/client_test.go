package main

import (
	"bytes"
	"math/rand"
	"testing"

	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
)

// plainClient implements StoreClient and nothing else.
type plainClient struct{ dedup.StoreClient }

func TestWrapClientKeepsMethodSet(t *testing.T) {
	platform := enclave.NewPlatform(enclave.Config{})
	enc, err := platform.Create("s", []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(store.Config{Enclave: enc})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	local := dedup.NewLocalClient(st, enc.Measurement())
	d, err := newDeployment(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	appEnc, err := d.platform.Create("a", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := dedup.Dial(d.ln.Addr().String(), appEnc, d.storeEnc.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	for _, tc := range []struct {
		name  string
		inner dedup.StoreClient
	}{
		{"remote", remote},
		{"local", local},
		{"plain", plainClient{local}},
	} {
		w := wrapClient(tc.inner, newTracer())
		for _, iface := range []struct {
			name string
			has  func(c dedup.StoreClient) bool
		}{
			{"BatchClient", func(c dedup.StoreClient) bool { _, ok := c.(dedup.BatchClient); return ok }},
			{"HasBatcher", func(c dedup.StoreClient) bool { _, ok := c.(dedup.HasBatcher); return ok }},
			{"TracedClient", func(c dedup.StoreClient) bool { _, ok := c.(dedup.TracedClient); return ok }},
		} {
			if got, want := iface.has(w), iface.has(tc.inner); got != want {
				t.Errorf("%s: wrapped implements %s = %v, inner = %v", tc.name, iface.name, got, want)
			}
		}
	}
}

// mixResult is what one run of the seeded mix leaves behind.
type mixResult struct {
	outcomes  []dedup.Outcome
	stats     dedup.Stats
	entries   int
	blobBytes int64
}

// runMix executes a seeded mix of small and chunked results, with
// repeats, from one app, optionally behind the timed client.
func runMix(t *testing.T, seed int64, tr *tracer) mixResult {
	t.Helper()
	d, err := newDeployment(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	a, err := d.addApp("mix", chunkThreshold, tr)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	results := make([][]byte, 12)
	for i := range results {
		n := 512
		if i%3 == 0 {
			n = 3 * chunkThreshold // chunked: exercises HAS and PUT batches
		}
		results[i] = make([]byte, n)
		rng.Read(results[i])
	}
	var res mixResult
	for k := 0; k < 40; k++ {
		i := rng.Intn(len(results))
		in := []byte{byte(i)}
		c := newCaller(a, tr, func([]byte) ([]byte, error) { return bytes.Clone(results[i]), nil })
		out := c.call(mle.ComputeTag(a.id, in), in, digest(results[i]))
		if c.errors+c.wrong > 0 {
			t.Fatalf("call %d: %d errors, %d wrong outputs", k, c.errors, c.wrong)
		}
		res.outcomes = append(res.outcomes, out)
	}
	res.stats = a.rt.Stats()
	s := d.st.Stats()
	res.entries, res.blobBytes = s.Entries, s.BlobBytes
	return res
}

func TestTimedClientIsTransparent(t *testing.T) {
	const seed = 7
	tr := newTracer()
	plain, timed := runMix(t, seed, nil), runMix(t, seed, tr)
	if len(plain.outcomes) != len(timed.outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(plain.outcomes), len(timed.outcomes))
	}
	for i := range plain.outcomes {
		if plain.outcomes[i] != timed.outcomes[i] {
			t.Errorf("call %d: outcome %v without the decorator, %v with it", i, plain.outcomes[i], timed.outcomes[i])
		}
	}
	if plain.stats != timed.stats {
		t.Errorf("runtime stats differ:\n without %+v\n with    %+v", plain.stats, timed.stats)
	}
	if plain.entries != timed.entries || plain.blobBytes != timed.blobBytes {
		t.Errorf("store holds %d entries / %d blob bytes without the decorator, %d / %d with it",
			plain.entries, plain.blobBytes, timed.entries, timed.blobBytes)
	}
	if plain.stats.ChunkedPuts == 0 || plain.stats.ManifestReuses == 0 {
		t.Errorf("mix did not exercise the chunked path: %+v", plain.stats)
	}
	for _, op := range []string{opGet, opPut, opHasBatch, opPutBatch} {
		if len(tr.ops[op]) == 0 {
			t.Errorf("decorator saw no %s", op)
		}
	}
	if tr.unattributed != 0 {
		t.Errorf("%d client operations matched no call", tr.unattributed)
	}
}
