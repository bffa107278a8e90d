package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"reflect"
	"runtime/metrics"

	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	storeengine "speed/internal/store/engine"
)

// funcDesc names the marked function every app registers; apps with
// different measurements resolve it to the same FuncID, so their tags
// converge (cross-application deduplication).
var funcDesc = dedup.FuncDesc{Library: "perfbench", Version: "1.0", Signature: "bytes f(bytes)"}

var libraryCode = []byte("perfbench trusted library")

// deployment is one machine: a simulated SGX platform with default
// costs, a store enclave serving a resultstore over loopback TCP, and
// the app enclaves connected to it.
type deployment struct {
	platform  *enclave.Platform
	storeEnc  *enclave.Enclave
	st        *store.Store
	ln        *countingListener
	srv       *store.Server
	serveDone chan struct{}
	apps      []*app
	dataDir   string
}

// app is one application enclave with its dedup runtime and one
// attested connection to the store.
type app struct {
	enc *enclave.Enclave
	rt  *dedup.Runtime
	id  mle.FuncID
}

// newDeployment starts a store with cfg (its Enclave is filled in)
// behind a counting listener. A log-engine store owns cfg.DataDir and
// removes it on close.
func newDeployment(cfg store.Config) (*deployment, error) {
	d := &deployment{
		platform: enclave.NewPlatform(enclave.Config{SimulateCosts: true}),
		dataDir:  cfg.DataDir,
	}
	var err error
	if d.storeEnc, err = d.platform.Create("store", []byte("perfbench store code")); err != nil {
		return nil, err
	}
	cfg.Enclave = d.storeEnc
	if d.st, err = store.New(cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.st.Close()
		return nil, err
	}
	d.ln = &countingListener{Listener: ln}
	d.srv = store.NewServer(d.st, d.ln, store.WithLogf(func(string, ...any) {}))
	d.serveDone = make(chan struct{})
	go func() {
		defer close(d.serveDone)
		_ = d.srv.Serve()
	}()
	return d, nil
}

// addApp creates an app enclave named name, dials the store, and
// builds its runtime. A non-nil tracer puts the timed client between
// runtime and connection.
func (d *deployment) addApp(name string, chunkThreshold int, tr *tracer) (*app, error) {
	enc, err := d.platform.Create(name, []byte("perfbench app code: "+name))
	if err != nil {
		return nil, err
	}
	rc, err := dedup.Dial(d.ln.Addr().String(), enc, d.storeEnc.Measurement())
	if err != nil {
		return nil, fmt.Errorf("dial store: %w", err)
	}
	var client dedup.StoreClient = rc
	if tr != nil {
		client = wrapClient(rc, tr)
	}
	rt, err := dedup.NewRuntime(dedup.Config{
		Enclave:        enc,
		Client:         client,
		ChunkThreshold: chunkThreshold,
		Logf:           log.New(os.Stderr, "perfbench: "+name+": ", 0).Printf,
	})
	if err != nil {
		_ = rc.Close()
		return nil, err
	}
	rt.Registry().RegisterLibrary(funcDesc.Library, funcDesc.Version, libraryCode)
	id, err := rt.Resolve(funcDesc)
	if err != nil {
		_ = rt.Close()
		return nil, err
	}
	a := &app{enc: enc, rt: rt, id: id}
	d.apps = append(d.apps, a)
	return a, nil
}

// close stops the apps, the server and the store, then deletes the
// store's data directory.
func (d *deployment) close() {
	for _, a := range d.apps {
		_ = a.rt.Close()
	}
	_ = d.srv.Close()
	<-d.serveDone
	d.st.Close()
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir)
	}
}

// counters is a snapshot of every counter the program exports, plus
// the Go runtime's allocation and GC counters. The difference of two
// snapshots is the activity between them.
type counters struct {
	WireBytes, ServerReads, ServerWrites  int64
	AppCrossings, StoreECalls, PageFaults int64
	Runtime                               dedup.Stats
	Store                                 store.Stats
	Engine                                storeengine.Stats
	GoAllocs, GoAllocBytes, GCCycles      uint64
}

var goCounterNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func (d *deployment) counters() counters {
	c := counters{
		WireBytes:    d.ln.bytes.Load(),
		ServerReads:  d.ln.reads.Load(),
		ServerWrites: d.ln.writes.Load(),
		Store:        d.st.Stats(),
		Engine:       d.st.EngineStats(),
	}
	sm := d.storeEnc.Metrics()
	c.StoreECalls = sm.ECalls
	c.PageFaults = sm.PageFaults
	for _, a := range d.apps {
		m := a.enc.Metrics()
		c.AppCrossings += m.ECalls + m.OCalls
		c.PageFaults += m.PageFaults
		addFields(&c.Runtime, a.rt.Stats(), 1)
	}
	s := make([]metrics.Sample, len(goCounterNames))
	for i, n := range goCounterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	c.GoAllocs, c.GoAllocBytes, c.GCCycles = s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
	return c
}

// addFields adds sign times every integer field of src to dst, field
// by field and recursively through nested structs. dst must point to a
// value of src's type.
func addFields(dst any, src any, sign int64) {
	addValue(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), sign)
}

func addValue(dst, src reflect.Value, sign int64) {
	switch dst.Kind() {
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			addValue(dst.Field(i), src.Field(i), sign)
		}
	case reflect.Int, reflect.Int64:
		dst.SetInt(dst.Int() + sign*src.Int())
	case reflect.Uint64:
		dst.SetUint(uint64(int64(dst.Uint()) + sign*int64(src.Uint())))
	}
}
