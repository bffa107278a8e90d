package bench

import (
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"time"

	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
)

// The ablations called out in DESIGN.md: each isolates one design
// decision of the paper and quantifies its cost or benefit.

// SchemeRow compares the cross-application RCE scheme (Section III-C)
// with the single-key basic design (Section III-B) at one input size.
type SchemeRow struct {
	SizeBytes             int
	RCEEncMS, SingleEncMS float64
	RCEDecMS, SingleDecMS float64
}

// AblationScheme measures seal/open cost of both schemes. The expected
// result: RCE costs one extra hash over (func, input, r) plus an XOR —
// the price of eliminating the system-wide key.
func AblationScheme(sizes []int, trials int) ([]SchemeRow, error) {
	if len(sizes) == 0 {
		sizes = DefaultTable1Sizes
	}
	id := mle.FuncID(sha256.Sum256([]byte("ablation func")))
	var key [mle.KeySize]byte
	copy(key[:], "ablation-key-16b")
	rce := &mle.RCE{}
	single := mle.NewSingleKey(key, nil)

	rows := make([]SchemeRow, 0, len(sizes))
	for _, size := range sizes {
		input := randBytes(size)
		result := randBytes(size)
		row := SchemeRow{SizeBytes: size}

		var rceSealed, singleSealed mle.Sealed
		t, err := timeIt(trials, func() error {
			var e error
			rceSealed, e = rce.Encrypt(id, input, result)
			return e
		})
		if err != nil {
			return nil, err
		}
		row.RCEEncMS = ms(t)

		t, err = timeIt(trials, func() error {
			var e error
			singleSealed, e = single.Encrypt(id, input, result)
			return e
		})
		if err != nil {
			return nil, err
		}
		row.SingleEncMS = ms(t)

		t, err = timeIt(trials, func() error {
			_, e := rce.Decrypt(id, input, rceSealed)
			return e
		})
		if err != nil {
			return nil, err
		}
		row.RCEDecMS = ms(t)

		t, err = timeIt(trials, func() error {
			_, e := single.Decrypt(id, input, singleSealed)
			return e
		})
		if err != nil {
			return nil, err
		}
		row.SingleDecMS = ms(t)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderAblationScheme formats the scheme comparison.
func RenderAblationScheme(rows []SchemeRow) string {
	s := "Ablation: RCE (cross-app, keyless) vs single-key basic design\n"
	s += fmt.Sprintf("%-10s %12s %12s %12s %12s\n",
		"Size(KB)", "RCE enc(ms)", "1key enc(ms)", "RCE dec(ms)", "1key dec(ms)")
	for _, r := range rows {
		s += fmt.Sprintf("%-10d %12.3f %12.3f %12.3f %12.3f\n",
			r.SizeBytes/1024, r.RCEEncMS, r.SingleEncMS, r.RCEDecMS, r.SingleDecMS)
	}
	return s
}

// AsyncPutRow compares initial-computation latency with the PUT
// pipeline on the caller path vs in the background worker (the
// Section V-B optimization). The timings are noisy; SyncPath and
// AsyncPath are the deterministic counts behind them.
type AsyncPutRow struct {
	SizeBytes           int
	SyncMS, AsyncMS     float64
	SyncPath, AsyncPath CallerPath
}

// CallerPath counts the work one initial computation does on its
// caller's path, between the Execute call and its return: OCALLs out
// of the app enclave (the store GET, and the PUT when it is
// synchronous) and result encryptions.
type CallerPath struct {
	OCalls, Encrypts int64
}

// AblationAsyncPut measures the caller-visible initial-computation
// latency for a trivially fast function whose result has the given
// size, isolating the PUT-path cost.
func AblationAsyncPut(sizes []int, trials int) ([]AsyncPutRow, error) {
	if len(sizes) == 0 {
		sizes = DefaultTable1Sizes
	}
	measure := func(async bool, size int) (float64, error) {
		platform := enclave.NewPlatform(enclave.Config{SimulateCosts: true})
		appEnc, err := platform.Create("app", []byte("app"))
		if err != nil {
			return 0, err
		}
		storeEnc, err := platform.Create("store", []byte("store"))
		if err != nil {
			return 0, err
		}
		st, err := store.New(store.Config{Enclave: storeEnc})
		if err != nil {
			return 0, err
		}
		rt, err := dedup.NewRuntime(dedup.Config{
			Enclave:  appEnc,
			Client:   dedup.NewLocalClient(st, appEnc.Measurement()),
			AsyncPut: async,
			Logf:     func(string, ...any) {},
		})
		if err != nil {
			return 0, err
		}
		defer func() {
			_ = rt.Close()
			st.Close()
		}()
		result := randBytes(size)
		compute := func([]byte) ([]byte, error) { return result, nil }

		n := 0
		t, err := timeIt(trials, func() error {
			n++
			var trialID mle.FuncID
			trialID[0] = byte(n)
			trialID[1] = byte(size)
			trialID[2] = byte(size >> 8)
			trialID[3] = byte(size >> 16)
			_, _, xerr := rt.Execute(trialID, []byte("input"), compute)
			return xerr
		})
		if err != nil {
			return 0, err
		}
		return ms(t), nil
	}

	rows := make([]AsyncPutRow, 0, len(sizes))
	for _, size := range sizes {
		syncMS, err := measure(false, size)
		if err != nil {
			return nil, err
		}
		asyncMS, err := measure(true, size)
		if err != nil {
			return nil, err
		}
		row := AsyncPutRow{SizeBytes: size, SyncMS: syncMS, AsyncMS: asyncMS}
		if row.SyncPath, err = asyncPutCallerPath(false, size); err != nil {
			return nil, err
		}
		if row.AsyncPath, err = asyncPutCallerPath(true, size); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// asyncPutCallerPath counts one initial computation's caller-path work
// (see CallerPath) with simulated costs off. With AsyncPut the PUT
// worker is first parked inside an earlier upload, whose store PUT
// blocks until the count is taken, so only the caller's own work can
// land in the window and the count is exact.
func asyncPutCallerPath(async bool, size int) (CallerPath, error) {
	platform := enclave.NewPlatform(enclave.Config{})
	appEnc, err := platform.Create("app", []byte("app"))
	if err != nil {
		return CallerPath{}, err
	}
	storeEnc, err := platform.Create("store", []byte("store"))
	if err != nil {
		return CallerPath{}, err
	}
	st, err := store.New(store.Config{Enclave: storeEnc})
	if err != nil {
		return CallerPath{}, err
	}
	defer st.Close()
	var client dedup.StoreClient = dedup.NewLocalClient(st, appEnc.Measurement())
	var parking *parkingClient
	if async {
		parking = &parkingClient{
			StoreClient: client,
			parked:      make(chan struct{}, 1),
			release:     make(chan struct{}),
		}
		client = parking
	}
	scheme := &countingScheme{Scheme: &mle.RCE{}}
	rt, err := dedup.NewRuntime(dedup.Config{
		Enclave:  appEnc,
		Client:   client,
		Scheme:   scheme,
		AsyncPut: async,
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		return CallerPath{}, err
	}
	defer rt.Close()

	result := randBytes(size)
	compute := func([]byte) ([]byte, error) { return result, nil }
	id := mle.FuncID(sha256.Sum256([]byte("caller path")))
	if async {
		// Deferred after rt.Close, so it runs first and the worker can
		// drain.
		defer close(parking.release)
		if _, _, err := rt.Execute(id, []byte("park the put worker"), compute); err != nil {
			return CallerPath{}, err
		}
		<-parking.parked
	}
	ocalls, encrypts := appEnc.Metrics().OCalls, scheme.encrypts.Load()
	if _, _, err := rt.Execute(id, []byte("measured call"), compute); err != nil {
		return CallerPath{}, err
	}
	return CallerPath{
		OCalls:   appEnc.Metrics().OCalls - ocalls,
		Encrypts: scheme.encrypts.Load() - encrypts,
	}, nil
}

// parkingClient is a store client whose PUTs wait for release,
// signalling parked as each one starts waiting.
type parkingClient struct {
	dedup.StoreClient
	parked  chan struct{}
	release chan struct{}
}

func (c *parkingClient) Put(tag mle.Tag, sealed mle.Sealed, replace bool) error {
	select {
	case c.parked <- struct{}{}:
	default:
	}
	<-c.release
	return c.StoreClient.Put(tag, sealed, replace)
}

// countingScheme counts Encrypt calls.
type countingScheme struct {
	mle.Scheme
	encrypts atomic.Int64
}

func (s *countingScheme) Encrypt(id mle.FuncID, input, result []byte) (mle.Sealed, error) {
	s.encrypts.Add(1)
	return s.Scheme.Encrypt(id, input, result)
}

// RenderAblationAsyncPut formats the async-PUT comparison.
func RenderAblationAsyncPut(rows []AsyncPutRow) string {
	s := "Ablation: initial computation latency, synchronous vs async PUT\n"
	s += "(caller path: OCALLs/encryptions before Execute returns)\n"
	s += fmt.Sprintf("%-10s %14s %14s %12s %12s\n", "Size(KB)", "sync(ms)", "async(ms)", "sync path", "async path")
	for _, r := range rows {
		s += fmt.Sprintf("%-10d %14.3f %14.3f %12s %12s\n", r.SizeBytes/1024, r.SyncMS, r.AsyncMS,
			fmt.Sprintf("%d/%d", r.SyncPath.OCalls, r.SyncPath.Encrypts),
			fmt.Sprintf("%d/%d", r.AsyncPath.OCalls, r.AsyncPath.Encrypts))
	}
	return s
}

// ObliviousRow compares GET latency of the hash-map dictionary with
// the access-pattern-oblivious linear-scan dictionary at one store
// size.
type ObliviousRow struct {
	Entries              int
	PlainMS, ObliviousMS float64
}

// AblationOblivious quantifies the cost of hiding the memory access
// pattern of lookups (the security/performance balance Section III-D
// defers to future work): plain lookups are O(1), oblivious lookups
// scan all entries.
func AblationOblivious(entryCounts []int, trials int) ([]ObliviousRow, error) {
	if len(entryCounts) == 0 {
		entryCounts = []int{100, 1000, 10000}
	}
	measure := func(n int, oblivious bool) (float64, error) {
		platform := enclave.NewPlatform(enclave.Config{SimulateCosts: true})
		storeEnc, err := platform.Create("store", []byte("store"))
		if err != nil {
			return 0, err
		}
		st, err := store.New(store.Config{Enclave: storeEnc, Oblivious: oblivious})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		var owner enclave.Measurement
		mkTag := func(i int) mle.Tag {
			var t mle.Tag
			t[0], t[1], t[2] = byte(i), byte(i>>8), byte(i>>16)
			return t
		}
		for i := 0; i < n; i++ {
			if _, err := st.Put(owner, mkTag(i), mle.Sealed{
				Challenge:  []byte("challenge-16byte"),
				WrappedKey: []byte("wrappedkey16byte"),
				Blob:       []byte("small result"),
			}); err != nil {
				return 0, err
			}
		}
		const ops = 100
		t, err := timeIt(trials, func() error {
			for i := 0; i < ops; i++ {
				if _, found, err := st.Get(mkTag(i % n)); err != nil || !found {
					return fmt.Errorf("get %d: found=%v err=%v", i, found, err)
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return ms(t), nil
	}

	rows := make([]ObliviousRow, 0, len(entryCounts))
	for _, n := range entryCounts {
		plain, err := measure(n, false)
		if err != nil {
			return nil, err
		}
		obl, err := measure(n, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ObliviousRow{Entries: n, PlainMS: plain, ObliviousMS: obl})
	}
	return rows, nil
}

// RenderAblationOblivious formats the oblivious-lookup comparison
// (times are per 100 GETs).
func RenderAblationOblivious(rows []ObliviousRow) string {
	s := "Ablation: plain vs access-pattern-oblivious lookups (100 GETs)\n"
	s += fmt.Sprintf("%-10s %14s %16s %10s\n", "Entries", "plain(ms)", "oblivious(ms)", "slowdown")
	for _, r := range rows {
		slow := 0.0
		if r.PlainMS > 0 {
			slow = r.ObliviousMS / r.PlainMS
		}
		s += fmt.Sprintf("%-10d %14.3f %16.3f %9.1fx\n", r.Entries, r.PlainMS, r.ObliviousMS, slow)
	}
	return s
}

// BlobPlacementRow compares EPC pressure with ciphertext blobs kept
// outside the enclave (the paper's design) vs hypothetically inside.
type BlobPlacementRow struct {
	Entries                    int
	OutsideMS, InsideMS        float64
	OutsidePageFaults          int64
	InsidePageFaults           int64
	OutsideEPCBytes, InsideEPC int64
}

// AblationBlobPlacement inserts N entries with blobSize-byte
// ciphertexts into two stores: the real one (metadata-only in EPC) and
// a variant that additionally charges the blob bytes to the store
// enclave, as a blobs-in-enclave design would. It reports insertion
// time, page faults and EPC residency.
func AblationBlobPlacement(entryCounts []int, blobSize int) ([]BlobPlacementRow, error) {
	if len(entryCounts) == 0 {
		entryCounts = []int{1000, 5000, 20000}
	}
	if blobSize <= 0 {
		blobSize = 8 << 10
	}
	run := func(n int, inside bool) (float64, int64, int64, error) {
		platform := enclave.NewPlatform(enclave.Config{
			SimulateCosts: true,
			// Shrink the EPC so the experiment shows paging pressure
			// at laptop-scale entry counts.
			EPCBytes:       64 << 20,
			EPCUsableBytes: 32 << 20,
		})
		storeEnc, err := platform.Create("store", []byte("store"))
		if err != nil {
			return 0, 0, 0, err
		}
		st, err := store.New(store.Config{Enclave: storeEnc})
		if err != nil {
			return 0, 0, 0, err
		}
		defer st.Close()
		var owner enclave.Measurement
		blob := randBytes(blobSize)

		start := time.Now()
		for i := 0; i < n; i++ {
			var tag mle.Tag
			tag[0], tag[1], tag[2] = byte(i), byte(i>>8), byte(i>>16)
			if _, err := st.Put(owner, tag, mle.Sealed{
				Challenge:  blob[:mle.ChallengeSize],
				WrappedKey: blob[:mle.KeySize],
				Blob:       blob,
			}); err != nil {
				return 0, 0, 0, err
			}
			if inside {
				// Charge the ciphertext to the enclave as a
				// blobs-inside design would.
				if err := storeEnc.Alloc(int64(blobSize)); err != nil {
					return 0, 0, 0, fmt.Errorf("inside alloc at entry %d: %w", i, err)
				}
			}
		}
		elapsed := time.Since(start)
		m := storeEnc.Metrics()
		return ms(elapsed), m.PageFaults, storeEnc.HeapUsed(), nil
	}

	rows := make([]BlobPlacementRow, 0, len(entryCounts))
	for _, n := range entryCounts {
		outMS, outPF, outEPC, err := run(n, false)
		if err != nil {
			return nil, err
		}
		row := BlobPlacementRow{
			Entries:           n,
			OutsideMS:         outMS,
			OutsidePageFaults: outPF,
			OutsideEPCBytes:   outEPC,
		}
		inMS, inPF, inEPC, err := run(n, true)
		if err != nil {
			// Blobs-inside can exhaust the EPC entirely — that IS the
			// finding; record it as an unmeasurable configuration.
			row.InsideMS = -1
			row.InsidePageFaults = -1
			row.InsideEPC = -1
		} else {
			row.InsideMS = inMS
			row.InsidePageFaults = inPF
			row.InsideEPC = inEPC
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderAblationBlobPlacement formats the blob-placement comparison;
// -1 marks configurations that exhausted the EPC.
func RenderAblationBlobPlacement(rows []BlobPlacementRow, blobSize int) string {
	s := fmt.Sprintf("Ablation: blob placement (blob = %d KB, EPC capped at 64MB/32MB usable)\n", blobSize/1024)
	s += fmt.Sprintf("%-9s %12s %12s %11s %11s %12s %12s\n",
		"Entries", "out(ms)", "in(ms)", "out-faults", "in-faults", "out-EPC(KB)", "in-EPC(KB)")
	for _, r := range rows {
		s += fmt.Sprintf("%-9d %12.2f %12.2f %11d %11d %12d %12d\n",
			r.Entries, r.OutsideMS, r.InsideMS, r.OutsidePageFaults, r.InsidePageFaults,
			r.OutsideEPCBytes/1024, r.InsideEPC/1024)
	}
	return s
}
