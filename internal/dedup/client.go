package dedup

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// StoreClient is the runtime's view of the encrypted ResultStore. Both
// deployments of Section IV-B are supported: a store on the same
// machine (LocalClient) and a store on a dedicated server reached over
// the attested secure channel (RemoteClient).
type StoreClient interface {
	// Get performs a GET_REQUEST for the tag.
	Get(tag mle.Tag) (mle.Sealed, bool, error)
	// Put performs a PUT_REQUEST for the tag. With replace true, any
	// existing entry is overwritten (used after the stored entry
	// failed verification at this application).
	Put(tag mle.Tag, sealed mle.Sealed, replace bool) error
	// Ping checks that the store is reachable and serving, without
	// performing (or fabricating) any dictionary operation: health
	// probes must not pollute the store's GET/hit statistics. A nil
	// return means a full request round trip succeeded.
	Ping() error
	// Close releases the client's resources.
	Close() error
}

// BatchClient is implemented by store clients that can carry many GETs
// or PUTs per round trip (protocol v2). Callers should type-assert and
// fall back to per-item StoreClient calls when the interface is absent.
type BatchClient interface {
	StoreClient
	// GetBatch answers one GetResult per tag, positionally. A nil error
	// guarantees len(results) == len(tags).
	GetBatch(tags []mle.Tag) ([]wire.GetResult, error)
	// PutBatch uploads the items, answering one PutResult per item,
	// positionally. Per-item rejections (quota, authorization) land in
	// the results, not the error.
	PutBatch(items []wire.PutItem) ([]wire.PutResult, error)
}

// ErrHasBatchUnsupported is returned by HasBatch when the store (or
// the negotiated channel) cannot answer existence probes — a peer that
// predates FeatureChunking, or a v1 connection. Callers fall back to
// assuming every probed tag is missing: uploading a chunk the store
// already holds is harmless (first version wins).
var ErrHasBatchUnsupported = errors.New("dedup: store does not support existence probes")

// HasBatcher is implemented by store clients that can probe tag
// existence without fetching payloads, counting hits or refreshing
// recency — the question chunked dedup asks before transferring sealed
// chunks. Callers type-assert and treat an absent interface (or
// ErrHasBatchUnsupported) as "all missing". Answers are hints: a
// probed-present entry can expire before a later GET, which surfaces
// as a loud reassembly failure and a recompute, never a wrong result.
type HasBatcher interface {
	StoreClient
	// HasBatch reports, positionally, which tags are present.
	HasBatch(tags []mle.Tag) ([]bool, error)
}

// TracedClient is implemented by store clients that can propagate a
// distributed-trace context with each request, so a sampled Execute's
// trace ID reaches the store node (or nodes) that served it and their
// spans assemble into one cross-node trace. Callers type-assert and
// fall back to the plain StoreClient calls when the interface is
// absent; implementations must behave identically to their untraced
// counterparts when tc is not sampled.
type TracedClient interface {
	StoreClient
	// GetTraced is Get carrying a trace context.
	GetTraced(tc wire.TraceContext, tag mle.Tag) (mle.Sealed, bool, error)
	// PutTraced is Put carrying a trace context.
	PutTraced(tc wire.TraceContext, tag mle.Tag, sealed mle.Sealed, replace bool) error
	// GetBatchTraced is BatchClient.GetBatch carrying a trace context.
	GetBatchTraced(tc wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error)
	// PutBatchTraced is BatchClient.PutBatch carrying a trace context.
	PutBatchTraced(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error)
}

// ErrPutRejected is returned when the store refuses a PUT, e.g. due to
// the quota mechanism.
var ErrPutRejected = errors.New("dedup: store rejected put")

// LocalClient talks to a Store in the same process, modelling the
// paper's default deployment of the ResultStore "at the same machine of
// the outsourced applications". Requests still pass through the store
// enclave's ECALLs, so transition costs are accounted identically to
// the networked path minus the socket.
type LocalClient struct {
	store *store.Store
	owner enclave.Measurement
}

var (
	_ BatchClient = (*LocalClient)(nil)
	_ HasBatcher  = (*LocalClient)(nil)
)

// NewLocalClient creates a client operating on behalf of the
// application with the given measurement.
func NewLocalClient(st *store.Store, owner enclave.Measurement) *LocalClient {
	return &LocalClient{store: st, owner: owner}
}

// Get implements StoreClient. Authorization denials present as misses,
// matching the over-the-wire behaviour (deny without information).
func (c *LocalClient) Get(tag mle.Tag) (mle.Sealed, bool, error) {
	sealed, found, err := c.store.GetAs(c.owner, tag)
	if errors.Is(err, store.ErrUnauthorized) {
		return mle.Sealed{}, false, nil
	}
	return sealed, found, err
}

// Put implements StoreClient.
func (c *LocalClient) Put(tag mle.Tag, sealed mle.Sealed, replace bool) error {
	put := c.store.Put
	if replace {
		put = c.store.PutReplace
	}
	_, err := put(c.owner, tag, sealed)
	if errors.Is(err, store.ErrQuota) || errors.Is(err, store.ErrUnauthorized) {
		return fmt.Errorf("%w: %v", ErrPutRejected, err)
	}
	return err
}

// GetBatch implements BatchClient through the store's batch path, so
// the batch crosses into the store enclave as it would over the wire.
func (c *LocalClient) GetBatch(tags []mle.Tag) ([]wire.GetResult, error) {
	return c.store.GetBatchAs(c.owner, tags)
}

// PutBatch implements BatchClient.
func (c *LocalClient) PutBatch(items []wire.PutItem) ([]wire.PutResult, error) {
	return c.store.PutBatchAs(c.owner, items)
}

// HasBatch implements HasBatcher. The store maps authorization
// denials to absent itself (deny without information).
func (c *LocalClient) HasBatch(tags []mle.Tag) ([]bool, error) {
	return c.store.HasBatchAs(c.owner, tags)
}

// Ping implements StoreClient: the in-process store is "reachable"
// exactly while it is open. No dictionary operation is performed.
func (c *LocalClient) Ping() error {
	if c.store.Closed() {
		return store.ErrClosed
	}
	return nil
}

// Close implements StoreClient; the local client does not own the
// store, so it is a no-op.
func (c *LocalClient) Close() error { return nil }

// RemoteConfig tunes the robustness behaviour of a RemoteClient. The
// zero value selects the defaults noted on each field.
type RemoteConfig struct {
	// DialTimeout bounds the TCP connect plus the attested handshake of
	// each (re)connection attempt. Defaults to 5s; negative disables.
	DialTimeout time.Duration
	// RequestTimeout bounds one GET/PUT round trip on the channel, so a
	// stalled store can never wedge a caller. Defaults to 5s; negative
	// disables.
	RequestTimeout time.Duration
	// MaxRetries is the number of additional attempts after a transient
	// failure (connection reset, timeout, rate-limit rejection) before
	// the error is surfaced. Defaults to 2; negative disables retries.
	MaxRetries int
	// RetryBackoff is the first retry delay; each further retry doubles
	// it, with ±50% jitter, up to RetryMaxBackoff. Defaults to
	// 50ms / 2s.
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration
	// MaxProtocol pins the highest wire protocol version offered in the
	// handshake; 0 means wire.MaxProtocol. Pinning to wire.ProtocolV1
	// forces the serial request path (compatibility testing,
	// conservative rollouts).
	MaxProtocol int
	// Trust optionally accepts a store on a remote machine whose
	// platform attestation key is listed (remote attestation).
	Trust *wire.Trust
	// Lazy defers the first connection to the first request, so a
	// client can be created while the store is still down. Combined
	// with the runtime's degradation mode the application starts
	// compute-only and picks up deduplication when the store appears.
	Lazy bool
	// Telemetry, when non-nil, registers the client's retry and
	// reconnect counters and its in-flight-request gauge so the
	// registry sees them directly rather than through the runtime's
	// Stats probe.
	Telemetry *telemetry.Registry
}

func (cfg *RemoteConfig) fillDefaults() {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.RetryMaxBackoff <= 0 {
		cfg.RetryMaxBackoff = 2 * time.Second
	}
	if cfg.MaxProtocol == 0 {
		cfg.MaxProtocol = wire.MaxProtocol
	}
}

// RemoteClient talks to a store server over an attested secure channel.
// On a protocol-v2 connection the channel is a mux: any number of
// goroutines may issue requests concurrently and their round trips
// overlap on the single connection, with responses correlated by
// request ID. Against a v1 peer (the paper prototype's synchronous
// protocol, Section IV-B) requests fall back to the serial
// one-at-a-time discipline. Either way, requests carry per-request
// deadlines and transient failures are retried with jittered
// exponential backoff, transparently re-dialing and re-handshaking the
// attested channel when the previous one broke.
type RemoteClient struct {
	cfg RemoteConfig

	// Redial parameters; canRedial is false for clients wrapped around
	// an externally established channel.
	addr      string
	app       *enclave.Enclave
	storeMeas enclave.Measurement
	canRedial bool

	retries    atomic.Int64
	reconnects atomic.Int64
	inflight   atomic.Int64

	// Telemetry mirrors; nil-safe no-ops when RemoteConfig.Telemetry
	// was nil.
	retriesC    *telemetry.Counter
	reconnectsC *telemetry.Counter
	inflightG   *telemetry.Gauge

	// mu guards the connection state below. It is held only to
	// install, read or tear down the connection — never across a round
	// trip — so concurrent callers on a v2 mux proceed in parallel.
	mu     sync.Mutex
	ch     *wire.Channel // nil while disconnected
	mux    *chanMux      // non-nil iff ch speaks ProtocolV2
	closed bool

	// serialMu serialises send/recv pairs on a v1 channel, where the
	// wire protocol itself imposes one request at a time. Unused on v2.
	serialMu sync.Mutex
}

var (
	_ BatchClient  = (*RemoteClient)(nil)
	_ TracedClient = (*RemoteClient)(nil)
	_ HasBatcher   = (*RemoteClient)(nil)
)

// Dial connects to a store server at addr on the same platform,
// performing the attested handshake from the application enclave app
// and requiring the server to prove the expected store measurement.
func Dial(addr string, app *enclave.Enclave, storeMeasurement enclave.Measurement) (*RemoteClient, error) {
	return DialConfig(addr, app, storeMeasurement, RemoteConfig{})
}

// DialTrust is Dial that additionally accepts a store on a remote
// machine whose platform attestation key is in trust (remote
// attestation) — the cross-machine "master ResultStore" deployment of
// Section IV-B.
func DialTrust(addr string, app *enclave.Enclave, storeMeasurement enclave.Measurement, trust *wire.Trust) (*RemoteClient, error) {
	return DialConfig(addr, app, storeMeasurement, RemoteConfig{Trust: trust})
}

// DialConfig is Dial with explicit robustness configuration.
func DialConfig(addr string, app *enclave.Enclave, storeMeasurement enclave.Measurement, cfg RemoteConfig) (*RemoteClient, error) {
	cfg.fillDefaults()
	c := &RemoteClient{
		cfg:       cfg,
		addr:      addr,
		app:       app,
		storeMeas: storeMeasurement,
		canRedial: true,
	}
	if cfg.Telemetry != nil {
		appLabel := telemetry.L("app", app.Name())
		c.retriesC = cfg.Telemetry.NewCounter("speed_client_retries_total",
			"store request retries after transient failures", appLabel)
		c.reconnectsC = cfg.Telemetry.NewCounter("speed_client_reconnects_total",
			"successful re-dials of the attested store channel", appLabel)
		c.inflightG = cfg.Telemetry.NewGauge("speed_client_inflight_requests",
			"store requests currently awaiting a reply", appLabel)
	}
	if !cfg.Lazy {
		ch, err := c.dialChannel()
		if err != nil {
			return nil, err
		}
		c.installLocked(ch)
	}
	return c, nil
}

// NewRemoteClient wraps an already-established channel. Reconnection
// is unavailable (the client does not know how the channel was built),
// so a broken channel is terminal for the client.
func NewRemoteClient(ch *wire.Channel) *RemoteClient {
	cfg := RemoteConfig{}
	cfg.fillDefaults()
	c := &RemoteClient{cfg: cfg}
	c.installLocked(ch)
	return c
}

// Retries reports the number of request retries performed.
func (c *RemoteClient) Retries() int64 { return c.retries.Load() }

// Reconnects reports the number of successful re-dials (not counting
// the initial connection).
func (c *RemoteClient) Reconnects() int64 { return c.reconnects.Load() }

// Inflight reports the number of requests currently awaiting a reply.
func (c *RemoteClient) Inflight() int64 { return c.inflight.Load() }

// ProtocolVersion reports the negotiated wire protocol version of the
// current connection, or 0 while disconnected.
func (c *RemoteClient) ProtocolVersion() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ch == nil {
		return 0
	}
	return c.ch.Version()
}

// dialChannel establishes one attested channel, bounding connect plus
// handshake with DialTimeout.
func (c *RemoteClient) dialChannel() (*wire.Channel, error) {
	timeout := c.cfg.DialTimeout
	if timeout < 0 {
		timeout = 0
	}
	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dedup: dial store: %w", err)
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	ch, err := wire.ClientHandshakeVersion(conn, c.app, c.storeMeas, c.cfg.Trust, c.cfg.MaxProtocol)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dedup: handshake: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	return ch, nil
}

// installLocked installs a fresh channel as the current connection,
// spawning the demultiplexer when it negotiated v2. Caller holds c.mu
// (or owns c exclusively during construction).
func (c *RemoteClient) installLocked(ch *wire.Channel) {
	c.ch = ch
	c.mux = nil
	if ch != nil && ch.Version() >= wire.ProtocolV2 {
		c.mux = newChanMux(ch)
	}
}

// connect returns the current connection, dialing one first when
// disconnected. Concurrent callers racing to reconnect serialise here
// and share the single fresh channel.
func (c *RemoteClient) connect() (*wire.Channel, *chanMux, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, nil, errClientClosed
	}
	if c.ch == nil {
		if !c.canRedial {
			return nil, nil, errors.New("dedup: store channel lost (no redial information)")
		}
		ch, err := c.dialChannel()
		if err != nil {
			return nil, nil, err
		}
		c.installLocked(ch)
		c.reconnects.Add(1)
		c.reconnectsC.Inc()
	}
	return c.ch, c.mux, nil
}

// dropConn tears down the given channel if it is still the current
// connection, so the next attempt re-dials. A channel replaced by a
// concurrent reconnect is left alone.
func (c *RemoteClient) dropConn(ch *wire.Channel) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ch != ch || ch == nil {
		return
	}
	if c.mux != nil {
		c.mux.fail(errors.New("dedup: store channel poisoned"))
	}
	ch.Close()
	c.ch, c.mux = nil, nil
}

// errClientClosed is returned from requests after Close.
var errClientClosed = errors.New("dedup: remote client closed")

// roundTrip sends one request and waits for its reply, applying the
// per-request deadline, retry policy and transparent reconnect. A
// sampled tc rides in the v2 envelope; the serial v1 protocol has no
// place for it and drops it.
func (c *RemoteClient) roundTrip(req wire.Message, tc wire.TraceContext) (wire.Message, error) {
	attempts := 1 + c.cfg.MaxRetries
	if attempts < 1 {
		attempts = 1
	}
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			c.retriesC.Inc()
			sleepJittered(backoff)
			backoff *= 2
			if backoff > c.cfg.RetryMaxBackoff {
				backoff = c.cfg.RetryMaxBackoff
			}
		}
		msg, err := c.tryOnce(req, tc)
		if err != nil {
			lastErr = err
			if !isTransient(err) {
				return nil, err
			}
			continue
		}
		// A rate-limited PUT is the store asking us to slow down
		// (Section III-D quota); honour it by backing off and retrying
		// unless this was the final attempt.
		if pr, ok := msg.(wire.PutResponse); ok && !pr.OK && isRateLimited(pr.Err) && attempt < attempts-1 {
			lastErr = fmt.Errorf("%w: %s", ErrPutRejected, pr.Err)
			continue
		}
		return msg, nil
	}
	return nil, lastErr
}

// tryOnce performs a single request attempt on the current connection,
// (re)connecting first if necessary. On a v2 connection the request
// travels through the mux and overlaps with other callers'; on v1 the
// serial discipline is enforced here (batch requests are emulated with
// a loop of serial round trips). Any transport error poisons the
// channel (its cipher counters can no longer match the peer's), so the
// connection is dropped and the next attempt re-handshakes.
func (c *RemoteClient) tryOnce(req wire.Message, tc wire.TraceContext) (wire.Message, error) {
	return c.tryRequest(req, tc, false)
}

// tryRequest is tryOnce with an escape hatch: with direct true the
// message is sent verbatim on a v1 channel instead of going through the
// batch unrolling of serialRequest. Ping depends on this — a zero-item
// batch GET unrolls into zero round trips, which would "probe" the
// store without touching the wire at all.
func (c *RemoteClient) tryRequest(req wire.Message, tc wire.TraceContext, direct bool) (wire.Message, error) {
	ch, mux, err := c.connect()
	if err != nil {
		return nil, err
	}
	c.inflight.Add(1)
	c.inflightG.Add(1)
	defer func() {
		c.inflight.Add(-1)
		c.inflightG.Add(-1)
	}()

	if mux != nil {
		msg, err := mux.roundTrip(req, tc, c.cfg.RequestTimeout)
		if err != nil {
			c.dropConn(ch)
			if c.isClosed() {
				// Close raced with the request; surface the
				// deterministic terminal error rather than whatever the
				// dying transport produced.
				return nil, errClientClosed
			}
			return nil, err
		}
		return msg, nil
	}

	c.serialMu.Lock()
	defer c.serialMu.Unlock()
	var msg wire.Message
	if direct {
		msg, err = c.serialRoundTrip(ch, req)
	} else {
		msg, err = c.serialRequest(ch, req)
	}
	if err != nil {
		c.dropConn(ch)
		if c.isClosed() {
			return nil, errClientClosed
		}
		return nil, err
	}
	return msg, nil
}

func (c *RemoteClient) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// serialRequest performs one request on a v1 channel under the caller's
// serialMu. Batch messages are not part of the v1 protocol, so they
// are unrolled into serial round trips here — callers get batch
// semantics against old stores, just without the wire amortisation.
func (c *RemoteClient) serialRequest(ch *wire.Channel, req wire.Message) (wire.Message, error) {
	switch m := req.(type) {
	case wire.BatchGetRequest:
		resp := wire.BatchGetResponse{Results: make([]wire.GetResult, len(m.Tags))}
		for i, tag := range m.Tags {
			msg, err := c.serialRoundTrip(ch, wire.GetRequest{Tag: tag})
			if err != nil {
				return nil, err
			}
			gr, ok := msg.(wire.GetResponse)
			if !ok {
				return nil, fmt.Errorf("dedup: unexpected reply %v", msg.Kind())
			}
			resp.Results[i] = wire.GetResult{Found: gr.Found, Sealed: gr.Sealed}
		}
		return resp, nil
	case wire.BatchPutRequest:
		resp := wire.BatchPutResponse{Results: make([]wire.PutResult, len(m.Items))}
		for i, it := range m.Items {
			msg, err := c.serialRoundTrip(ch, wire.PutRequest{Tag: it.Tag, Sealed: it.Sealed, Replace: it.Replace})
			if err != nil {
				return nil, err
			}
			pr, ok := msg.(wire.PutResponse)
			if !ok {
				return nil, fmt.Errorf("dedup: unexpected reply %v", msg.Kind())
			}
			resp.Results[i] = wire.PutResult{OK: pr.OK, Err: pr.Err}
		}
		return resp, nil
	default:
		return c.serialRoundTrip(ch, req)
	}
}

// serialRoundTrip is one v1 send/recv pair with the request deadline
// applied to the channel.
func (c *RemoteClient) serialRoundTrip(ch *wire.Channel, req wire.Message) (wire.Message, error) {
	if c.cfg.RequestTimeout > 0 {
		ch.SetDeadline(time.Now().Add(c.cfg.RequestTimeout))
	}
	err := ch.SendMessage(req)
	var msg wire.Message
	if err == nil {
		msg, err = ch.RecvMessage()
	}
	if c.cfg.RequestTimeout > 0 {
		ch.SetDeadline(time.Time{})
	}
	if err != nil {
		return nil, err
	}
	return msg, nil
}

// isTransient reports whether a request error is worth retrying on a
// fresh connection: timeouts, connection resets/refusals and peer
// closes. Attestation failures and protocol violations are not.
func isTransient(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	switch {
	case errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.EPIPE):
		return true
	}
	return false
}

// isRateLimited recognises the store's rate-limit rejection reason in a
// PutResponse (the byte-space quota, by contrast, is not transient).
func isRateLimited(reason string) bool {
	return strings.Contains(reason, "rate limit")
}

// sleepJittered sleeps for d ±50%, decorrelating the retry schedules
// of concurrent clients hammering a recovering store.
func sleepJittered(d time.Duration) {
	if d <= 0 {
		return
	}
	half := int64(d / 2)
	time.Sleep(time.Duration(half + rand.Int63n(half+1)))
}

// Get implements StoreClient.
func (c *RemoteClient) Get(tag mle.Tag) (mle.Sealed, bool, error) {
	return c.GetTraced(wire.TraceContext{}, tag)
}

// GetTraced implements TracedClient.
func (c *RemoteClient) GetTraced(tc wire.TraceContext, tag mle.Tag) (mle.Sealed, bool, error) {
	msg, err := c.roundTrip(wire.GetRequest{Tag: tag}, tc)
	if err != nil {
		return mle.Sealed{}, false, fmt.Errorf("dedup: get: %w", err)
	}
	resp, ok := msg.(wire.GetResponse)
	if !ok {
		return mle.Sealed{}, false, fmt.Errorf("dedup: unexpected reply %v", msg.Kind())
	}
	return resp.Sealed, resp.Found, nil
}

// Put implements StoreClient.
func (c *RemoteClient) Put(tag mle.Tag, sealed mle.Sealed, replace bool) error {
	return c.PutTraced(wire.TraceContext{}, tag, sealed, replace)
}

// PutTraced implements TracedClient.
func (c *RemoteClient) PutTraced(tc wire.TraceContext, tag mle.Tag, sealed mle.Sealed, replace bool) error {
	msg, err := c.roundTrip(wire.PutRequest{Tag: tag, Sealed: sealed, Replace: replace}, tc)
	if err != nil {
		return fmt.Errorf("dedup: put: %w", err)
	}
	resp, ok := msg.(wire.PutResponse)
	if !ok {
		return fmt.Errorf("dedup: unexpected reply %v", msg.Kind())
	}
	if !resp.OK {
		return fmt.Errorf("%w: %s", ErrPutRejected, resp.Err)
	}
	return nil
}

// GetBatch implements BatchClient: one round trip per
// wire.MaxBatchItems chunk on a v2 connection, a serial loop against a
// v1 store.
func (c *RemoteClient) GetBatch(tags []mle.Tag) ([]wire.GetResult, error) {
	return c.GetBatchTraced(wire.TraceContext{}, tags)
}

// GetBatchTraced implements TracedClient.
func (c *RemoteClient) GetBatchTraced(tc wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error) {
	if len(tags) == 0 {
		return nil, nil
	}
	results := make([]wire.GetResult, 0, len(tags))
	for start := 0; start < len(tags); start += wire.MaxBatchItems {
		end := start + wire.MaxBatchItems
		if end > len(tags) {
			end = len(tags)
		}
		chunk := tags[start:end]
		msg, err := c.roundTrip(wire.BatchGetRequest{Tags: chunk}, tc)
		if err != nil {
			return nil, fmt.Errorf("dedup: batch get: %w", err)
		}
		resp, ok := msg.(wire.BatchGetResponse)
		if !ok {
			return nil, fmt.Errorf("dedup: unexpected reply %v", msg.Kind())
		}
		if len(resp.Results) != len(chunk) {
			return nil, fmt.Errorf("dedup: batch get: %d results for %d tags", len(resp.Results), len(chunk))
		}
		results = append(results, resp.Results...)
	}
	return results, nil
}

// PutBatch implements BatchClient. Unlike Put, rate-limited items are
// reported in their PutResult rather than retried: retrying a subset
// of a batch would reorder it against concurrent batches for no
// benefit, and the runtime already treats rejected puts as advisory.
func (c *RemoteClient) PutBatch(items []wire.PutItem) ([]wire.PutResult, error) {
	return c.PutBatchTraced(wire.TraceContext{}, items)
}

// PutBatchTraced implements TracedClient.
func (c *RemoteClient) PutBatchTraced(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	if len(items) == 0 {
		return nil, nil
	}
	results := make([]wire.PutResult, 0, len(items))
	for start := 0; start < len(items); start += wire.MaxBatchItems {
		end := start + wire.MaxBatchItems
		if end > len(items) {
			end = len(items)
		}
		chunk := items[start:end]
		msg, err := c.roundTrip(wire.BatchPutRequest{Items: chunk}, tc)
		if err != nil {
			return nil, fmt.Errorf("dedup: batch put: %w", err)
		}
		resp, ok := msg.(wire.BatchPutResponse)
		if !ok {
			return nil, fmt.Errorf("dedup: unexpected reply %v", msg.Kind())
		}
		if len(resp.Results) != len(chunk) {
			return nil, fmt.Errorf("dedup: batch put: %d results for %d items", len(resp.Results), len(chunk))
		}
		results = append(results, resp.Results...)
	}
	return results, nil
}

// Ping implements StoreClient: one liveness round trip that performs no
// dictionary operation. On a v2 connection it is a zero-item batch GET
// through the mux; on v1 the same empty frame is sent serially. Either
// way the full path — (re)dial, attested handshake, framing, store
// dispatch — is exercised, but the store executes zero GETs, so health
// probes never fabricate traffic or skew hit-rate statistics. Ping is a
// single attempt without the retry schedule: a probe should report the
// store's state now, and probers repeat on their own cadence.
func (c *RemoteClient) Ping() error {
	msg, err := c.tryRequest(wire.BatchGetRequest{}, wire.TraceContext{}, true)
	if err != nil {
		return fmt.Errorf("dedup: ping: %w", err)
	}
	resp, ok := msg.(wire.BatchGetResponse)
	if !ok {
		return fmt.Errorf("dedup: ping: unexpected reply %v", msg.Kind())
	}
	if len(resp.Results) != 0 {
		return fmt.Errorf("dedup: ping: %d results for an empty probe", len(resp.Results))
	}
	return nil
}

// HasBatch implements HasBatcher: one HAS_BATCH round trip per
// wire.MaxBatchItems chunk. The probe is gated on the negotiated
// channel capability — a v1 connection or a peer that did not offer
// FeatureChunking gets ErrHasBatchUnsupported without any frame sent,
// so old stores never see a message kind they cannot parse.
func (c *RemoteClient) HasBatch(tags []mle.Tag) ([]bool, error) {
	ch, _, err := c.connect()
	if err != nil {
		return nil, fmt.Errorf("dedup: has batch: %w", err)
	}
	if ch.Version() < wire.ProtocolV2 || ch.Features()&wire.FeatureChunking == 0 {
		return nil, ErrHasBatchUnsupported
	}
	if len(tags) == 0 {
		return nil, nil
	}
	present := make([]bool, 0, len(tags))
	for start := 0; start < len(tags); start += wire.MaxBatchItems {
		end := start + wire.MaxBatchItems
		if end > len(tags) {
			end = len(tags)
		}
		batch := tags[start:end]
		msg, err := c.roundTrip(wire.HasBatchRequest{Tags: batch}, wire.TraceContext{})
		if err != nil {
			return nil, fmt.Errorf("dedup: has batch: %w", err)
		}
		resp, ok := msg.(wire.HasBatchResponse)
		if !ok {
			return nil, fmt.Errorf("dedup: unexpected reply %v", msg.Kind())
		}
		if len(resp.Present) != len(batch) {
			return nil, fmt.Errorf("dedup: has batch: %d answers for %d tags", len(resp.Present), len(batch))
		}
		present = append(present, resp.Present...)
	}
	return present, nil
}

// SyncPull fetches up to max of the store's entries with at least
// minHits hits, most frequently hit first (the wire-level half of
// cluster.Syncer). max values outside (0, wire.MaxBatchItems] are
// clamped to wire.MaxBatchItems by the store. The store must understand
// the sync protocol; against an older store the request kills the
// session and surfaces a transport error.
func (c *RemoteClient) SyncPull(minHits int64, max int) ([]wire.SyncEntry, error) {
	req := wire.SyncPullRequest{MinHits: minHits}
	if max > 0 {
		req.Max = uint32(max)
	}
	msg, err := c.roundTrip(req, wire.TraceContext{})
	if err != nil {
		return nil, fmt.Errorf("dedup: sync pull: %w", err)
	}
	resp, ok := msg.(wire.SyncPullResponse)
	if !ok {
		return nil, fmt.Errorf("dedup: sync pull: unexpected reply %v", msg.Kind())
	}
	return resp.Entries, nil
}

// Close implements StoreClient. It is idempotent and safe to call
// concurrently with in-flight requests: waiters on a v2 mux are
// unblocked with errClientClosed, and any request racing the teardown
// surfaces errClientClosed rather than a transport error.
func (c *RemoteClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ch, mux := c.ch, c.mux
	c.ch, c.mux = nil, nil
	c.mu.Unlock()
	if mux != nil {
		// Fails every in-flight waiter with the deterministic terminal
		// error (and closes the underlying channel).
		mux.fail(errClientClosed)
		return nil
	}
	if ch != nil {
		return ch.Close()
	}
	return nil
}
