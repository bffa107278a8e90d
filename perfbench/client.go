package main

import (
	"net"
	"sync/atomic"
	"time"

	"speed/internal/dedup"
	"speed/internal/mle"
	"speed/internal/wire"
)

// timedClient is a transparent StoreClient decorator: every store
// operation is forwarded unchanged and its wall time is handed to the
// tracer. It is what the benchmark inserts between dedup.Runtime and
// dedup.RemoteClient in a traced run.
type timedClient struct {
	inner dedup.StoreClient
	tr    *tracer
}

// The runtime discovers optional client capabilities by type assertion,
// so the decorator must expose exactly the ones the wrapped client has:
// each group below is embedded only when the inner client implements it.
type (
	storeOps interface {
		dedup.StoreClient
		Retries() int64
	}
	batchOps interface {
		GetBatch(tags []mle.Tag) ([]wire.GetResult, error)
		PutBatch(items []wire.PutItem) ([]wire.PutResult, error)
	}
	hasOps interface {
		HasBatch(tags []mle.Tag) ([]bool, error)
	}
	tracedOps interface {
		GetTraced(tc wire.TraceContext, tag mle.Tag) (mle.Sealed, bool, error)
		PutTraced(tc wire.TraceContext, tag mle.Tag, sealed mle.Sealed, replace bool) error
		GetBatchTraced(tc wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error)
		PutBatchTraced(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error)
	}
)

// wrapClient returns inner behind a timedClient whose method set
// matches inner's: BatchClient, HasBatcher and TracedClient are present
// on the result iff inner implements them, so the runtime takes the same
// path with or without the decorator.
func wrapClient(inner dedup.StoreClient, tr *tracer) dedup.StoreClient {
	c := &timedClient{inner: inner, tr: tr}
	_, b := inner.(dedup.BatchClient)
	_, h := inner.(dedup.HasBatcher)
	_, t := inner.(dedup.TracedClient)
	switch {
	case b && h && t:
		return struct {
			storeOps
			batchOps
			hasOps
			tracedOps
		}{c, c, c, c}
	case b && h:
		return struct {
			storeOps
			batchOps
			hasOps
		}{c, c, c}
	case b && t:
		return struct {
			storeOps
			batchOps
			tracedOps
		}{c, c, c}
	case h && t:
		return struct {
			storeOps
			hasOps
			tracedOps
		}{c, c, c}
	case b:
		return struct {
			storeOps
			batchOps
		}{c, c}
	case h:
		return struct {
			storeOps
			hasOps
		}{c, c}
	case t:
		return struct {
			storeOps
			tracedOps
		}{c, c}
	default:
		return struct{ storeOps }{c}
	}
}

func (c *timedClient) Get(tag mle.Tag) (mle.Sealed, bool, error) {
	start := time.Now()
	s, ok, err := c.inner.Get(tag)
	c.tr.op(opGet, &tag, start)
	return s, ok, err
}

func (c *timedClient) Put(tag mle.Tag, sealed mle.Sealed, replace bool) error {
	start := time.Now()
	err := c.inner.Put(tag, sealed, replace)
	c.tr.op(opPut, &tag, start)
	return err
}

// Ping is a health probe, not part of any call, so it is not timed.
func (c *timedClient) Ping() error  { return c.inner.Ping() }
func (c *timedClient) Close() error { return c.inner.Close() }

// Retries forwards the inner client's retry counter; a client without
// one reports 0, which is what the runtime assumes when it is absent.
func (c *timedClient) Retries() int64 {
	if rc, ok := c.inner.(interface{ Retries() int64 }); ok {
		return rc.Retries()
	}
	return 0
}

func (c *timedClient) GetBatch(tags []mle.Tag) ([]wire.GetResult, error) {
	start := time.Now()
	r, err := c.inner.(dedup.BatchClient).GetBatch(tags)
	c.tr.op(opGetBatch, nil, start)
	return r, err
}

func (c *timedClient) PutBatch(items []wire.PutItem) ([]wire.PutResult, error) {
	start := time.Now()
	r, err := c.inner.(dedup.BatchClient).PutBatch(items)
	c.tr.op(opPutBatch, nil, start)
	return r, err
}

func (c *timedClient) HasBatch(tags []mle.Tag) ([]bool, error) {
	start := time.Now()
	r, err := c.inner.(dedup.HasBatcher).HasBatch(tags)
	c.tr.op(opHasBatch, nil, start)
	return r, err
}

func (c *timedClient) GetTraced(tc wire.TraceContext, tag mle.Tag) (mle.Sealed, bool, error) {
	start := time.Now()
	s, ok, err := c.inner.(dedup.TracedClient).GetTraced(tc, tag)
	c.tr.op(opGet, &tag, start)
	return s, ok, err
}

func (c *timedClient) PutTraced(tc wire.TraceContext, tag mle.Tag, sealed mle.Sealed, replace bool) error {
	start := time.Now()
	err := c.inner.(dedup.TracedClient).PutTraced(tc, tag, sealed, replace)
	c.tr.op(opPut, &tag, start)
	return err
}

func (c *timedClient) GetBatchTraced(tc wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error) {
	start := time.Now()
	r, err := c.inner.(dedup.TracedClient).GetBatchTraced(tc, tags)
	c.tr.op(opGetBatch, nil, start)
	return r, err
}

func (c *timedClient) PutBatchTraced(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	start := time.Now()
	r, err := c.inner.(dedup.TracedClient).PutBatchTraced(tc, items)
	c.tr.op(opPutBatch, nil, start)
	return r, err
}

// countingListener wraps the store server's listener and counts, over
// every accepted connection, the bytes moved and the Read and Write
// calls that moved them.
type countingListener struct {
	net.Listener
	bytes, reads, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.l.reads.Add(1)
		c.l.bytes.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.l.writes.Add(1)
		c.l.bytes.Add(int64(n))
	}
	return n, err
}
