package store

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
	"speed/internal/store/logengine"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// entryOverhead approximates the in-enclave footprint of one dictionary
// entry beyond its variable-length fields: tag key, blob pointer,
// counters and map bucket overhead. It is charged against the store
// enclave's EPC so that large dictionaries produce realistic paging
// pressure.
const entryOverhead = 96

// defaultShards is the dictionary shard count when Config.Shards is
// zero. Power of two, so shard selection is a mask over the tag bytes.
const defaultShards = 8

// maxShards bounds Config.Shards; beyond this the per-shard fixed
// overhead outweighs any contention win.
const maxShards = 256

var (
	// ErrQuota is returned when a PUT is rejected by the quota
	// mechanism.
	ErrQuota = errors.New("store: quota exceeded")
	// ErrClosed is returned after Close.
	ErrClosed = storeengine.ErrClosed
)

// Engine names accepted by Config.Engine.
const (
	// EngineMemory is the default volatile engine: the lock-striped
	// sharded dictionary with global LRU.
	EngineMemory = "memory"
	// EngineLog is the persistent log-structured engine
	// (internal/store/logengine): sealed WAL + sorted segments, crash
	// recovery by segment load and WAL replay.
	EngineLog = "log"
)

// Config configures a Store.
type Config struct {
	// Enclave hosts the metadata dictionary. Required.
	Enclave *enclave.Enclave
	// Engine selects the storage backend behind the store: "" or
	// "memory" for the in-RAM sharded dictionary (the default, exactly
	// the pre-engine behavior), or "log" for the persistent
	// log-structured engine rooted at DataDir.
	Engine string
	// DataDir is the log engine's on-disk directory. Required when
	// Engine is "log"; setting it with Engine unset selects "log".
	DataDir string
	// MemtableBytes bounds the log engine's in-memory write buffer
	// before it flushes a sorted segment; 0 selects the default.
	MemtableBytes int64
	// CacheBytes bounds the log engine's hot-entry read cache; 0
	// selects the default.
	CacheBytes int64
	// Fsync selects the log engine's WAL durability policy: "commit"
	// (fsync before acknowledging every PUT, the default), "interval"
	// (background fsync), or "none" (leave it to the OS).
	Fsync string
	// CompactInterval is how often the log engine's background
	// compactor considers merging segments; 0 selects the default.
	CompactInterval time.Duration
	// Blobs holds ciphertexts outside the enclave for the memory
	// engine. Defaults to an in-memory store. The log engine keeps
	// values in its own segments and ignores it.
	Blobs BlobStore
	// Shards is the number of lock-striped dictionary shards of the
	// memory engine; rounded up to a power of two, defaulting to 8.
	// Tags are uniformly distributed hashes, so striping spreads
	// GET/PUT lock contention evenly and lets concurrent requests
	// proceed on different cores.
	Shards int
	// MaxEntries caps the dictionary size; 0 means unlimited. When
	// exceeded, least-recently-used entries are evicted. The cap is
	// global: the eviction victim is the least recently used entry
	// across the whole engine, not a per-shard quota.
	MaxEntries int
	// MaxBlobBytes caps total ciphertext bytes; 0 means unlimited.
	MaxBlobBytes int64
	// Quota bounds per-application usage.
	Quota QuotaConfig
	// Auth, when non-nil, gates every operation by the caller's
	// attested measurement (controlled deduplication, Section III-D).
	Auth Authorizer
	// Oblivious makes dictionary lookups access-pattern oblivious: a
	// GET touches every in-enclave entry with constant-time tag
	// comparison and performs no LRU bookkeeping, so an adversary
	// observing enclave memory accesses cannot tell which entry (if
	// any) matched — or which shard held it. This trades throughput for
	// side-channel resistance (the security/performance balance the
	// paper defers to future work, Section III-D). With the log engine
	// the guarantee covers the in-enclave structures (memtable, cache,
	// segment index); see DESIGN.md "Storage engines".
	Oblivious bool
	// TTL expires entries that have not been stored or hit within the
	// given duration; 0 disables expiry. Expired entries are collected
	// lazily on access and by ExpireNow.
	TTL time.Duration
	// Telemetry, when non-nil, registers the store's counters (gets,
	// hits, puts, denials, evictions — backed by the Stats snapshot),
	// occupancy gauges (total and, for the memory engine, per shard;
	// for the log engine, WAL/segment/cache gauges), and per-operation
	// service-latency histograms speed_store_op_seconds{op="get"|"put"}.
	// Nil disables.
	Telemetry *telemetry.Registry
	// Now is the clock used by the quota, TTL and LRU mechanisms; nil
	// means time.Now. Injectable for tests.
	Now func() time.Time
	// Logf receives engine diagnostics (recovery, compaction); nil
	// discards.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of store activity. The operation counters are
// mutated and snapshotted under one lock, so the snapshot is
// internally consistent (e.g. Hits never exceeds Gets).
type Stats struct {
	Gets         int64
	Hits         int64
	Puts         int64
	PutDupes     int64
	PutDenied    int64
	Unauthorized int64
	Evictions    int64
	Expired      int64
	Entries      int
	BlobBytes    int64
}

// Store is the encrypted ResultStore: engine-neutral policy
// (authorization, quotas, TTL, limits, telemetry, snapshots) over a
// pluggable storage Engine. All methods are safe for concurrent use.
type Store struct {
	cfg Config
	eng storeengine.Engine

	quota  *quotas
	closed atomic.Bool

	statsMu sync.Mutex
	ops     Stats // operation counters; Entries/BlobBytes filled on snapshot

	// Per-op service-latency histograms; nil (and skipped) when
	// Config.Telemetry was nil.
	getSeconds *telemetry.Histogram
	putSeconds *telemetry.Histogram
}

// New constructs a Store over the configured engine.
func New(cfg Config) (*Store, error) {
	if cfg.Enclave == nil {
		return nil, errors.New("store: Config.Enclave is required")
	}
	if cfg.Blobs == nil {
		cfg.Blobs = NewMemBlobStore()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	engineName := cfg.Engine
	if engineName == "" {
		if cfg.DataDir != "" {
			engineName = EngineLog
		} else {
			engineName = EngineMemory
		}
	}
	s := &Store{cfg: cfg, quota: newQuotas(cfg.Quota, cfg.Now)}
	switch engineName {
	case EngineMemory:
		s.eng = newMemEngine(cfg.Enclave, cfg.Blobs, cfg.Shards, cfg.Oblivious, cfg.TTL, cfg.Now)
	case EngineLog:
		if cfg.DataDir == "" {
			return nil, errors.New("store: Engine \"log\" requires Config.DataDir")
		}
		fsync, err := logengine.ParseFsync(cfg.Fsync)
		if err != nil {
			return nil, err
		}
		eng, err := logengine.Open(logengine.Config{
			Dir:             cfg.DataDir,
			Enclave:         cfg.Enclave,
			MemtableBytes:   cfg.MemtableBytes,
			CacheBytes:      cfg.CacheBytes,
			Fsync:           fsync,
			CompactInterval: cfg.CompactInterval,
			Oblivious:       cfg.Oblivious,
			TTL:             cfg.TTL,
			Now:             cfg.Now,
			Logf:            cfg.Logf,
		})
		if err != nil {
			return nil, fmt.Errorf("store: open log engine: %w", err)
		}
		s.eng = eng
	default:
		return nil, fmt.Errorf("store: unknown engine %q", cfg.Engine)
	}
	s.registerTelemetry(cfg.Telemetry)
	return s, nil
}

// EngineName reports the active storage engine ("memory" or "log").
func (s *Store) EngineName() string { return s.eng.Name() }

// Persistent reports whether acknowledged PUTs survive a crash (the
// log engine). Autosaver uses it to switch from snapshot writing to
// checkpoint triggering.
func (s *Store) Persistent() bool { return s.eng.Durable() }

// Checkpoint makes every acknowledged PUT durable (log engine: flush
// the memtable and fsync the WAL). A no-op on the memory engine.
func (s *Store) Checkpoint() error { return s.eng.Checkpoint() }

// ShardCount reports the number of dictionary shards of the memory
// engine; 1 for engines without shards.
func (s *Store) ShardCount() int {
	if sc, ok := s.eng.(interface{ ShardCount() int }); ok {
		return sc.ShardCount()
	}
	return 1
}

// memShards exposes the memory engine's stripes to in-package tests.
func (s *Store) memShards() []*shard {
	if m, ok := s.eng.(*memEngine); ok {
		return m.shards
	}
	return nil
}

// registerTelemetry wires the store into reg: latency histograms are
// real metrics observed inline, while the counters and gauges read the
// Stats snapshot on demand so there is a single source of truth (and
// several stores sharing one registry sum, see telemetry.CounterFunc).
// Engine-specific series (per-shard occupancy, WAL/segment/cache
// activity) are registered by the engine itself, labeled by engine.
func (s *Store) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.getSeconds = reg.NewHistogram("speed_store_op_seconds",
		"store operation service latency", telemetry.L("op", "get"))
	s.putSeconds = reg.NewHistogram("speed_store_op_seconds",
		"store operation service latency", telemetry.L("op", "put"))
	for _, c := range []struct {
		name, help string
		field      func(Stats) int64
	}{
		{"speed_store_gets_total", "GET requests", func(st Stats) int64 { return st.Gets }},
		{"speed_store_hits_total", "GET requests answered positively", func(st Stats) int64 { return st.Hits }},
		{"speed_store_puts_total", "accepted fresh uploads", func(st Stats) int64 { return st.Puts }},
		{"speed_store_put_dupes_total", "uploads for already-stored tags", func(st Stats) int64 { return st.PutDupes }},
		{"speed_store_put_denied_total", "uploads rejected by quota", func(st Stats) int64 { return st.PutDenied }},
		{"speed_store_unauthorized_total", "operations denied by controlled deduplication", func(st Stats) int64 { return st.Unauthorized }},
		{"speed_store_evictions_total", "entries evicted by LRU pressure", func(st Stats) int64 { return st.Evictions }},
		{"speed_store_expired_total", "entries collected by TTL expiry", func(st Stats) int64 { return st.Expired }},
	} {
		field := c.field
		reg.NewCounterFunc(c.name, c.help, func() int64 { return field(s.Stats()) })
	}
	reg.NewGaugeFunc("speed_store_entries", "current dictionary size",
		func() float64 { return float64(s.Len()) })
	reg.NewGaugeFunc("speed_store_blob_bytes", "resident ciphertext bytes outside the enclave",
		func() float64 { return float64(s.eng.ValueBytes()) })
	if et, ok := s.eng.(interface {
		RegisterTelemetry(*telemetry.Registry)
	}); ok {
		et.RegisterTelemetry(reg)
	}
}

// Enclave returns the enclave hosting the metadata dictionary.
func (s *Store) Enclave() *enclave.Enclave { return s.cfg.Enclave }

// GetAs is Get with the caller's attested identity, consulted by the
// store's Authorizer when one is configured.
func (s *Store) GetAs(app enclave.Measurement, tag mle.Tag) (mle.Sealed, bool, error) {
	if err := s.authorize(app, tag, PermGet); err != nil {
		return mle.Sealed{}, false, err
	}
	return s.Get(tag)
}

// GetBatchAs answers a GET_BATCH on behalf of app: one wire.GetResult
// per tag, positionally, as GetAs on each tag in order would, except
// that tags app may not read answer not-found rather than failing
// (deny without information). Every authorized tag goes to the engine
// in one call, so the memory engine spends one store ECALL on the whole
// batch; expiry and dangling-entry cleanup then settle per tag, in
// order. An error means the engine failed, not any one tag.
func (s *Store) GetBatchAs(app enclave.Measurement, tags []mle.Tag) ([]wire.GetResult, error) {
	if s.getSeconds != nil {
		start := time.Now()
		defer func() { s.getSeconds.Observe(time.Since(start)) }()
	}
	results := make([]wire.GetResult, len(tags))
	allowed, pos := s.authorizeBatch(app, tags, PermGet)
	if len(allowed) == 0 {
		return results, nil
	}
	recs, statuses, err := s.eng.GetBatch(allowed)
	if err != nil {
		return nil, err
	}
	var removed map[mle.Tag]bool // tags this batch already collected
	for j, tag := range allowed {
		i := j
		if pos != nil {
			i = pos[j]
		}
		status := statuses[j]
		if removed[tag] {
			// An earlier copy of the tag was expired or dangling and is
			// gone, so this copy misses, as a later GET would.
			status = storeengine.StatusMiss
		} else if status == storeengine.StatusExpired || status == storeengine.StatusDangling {
			if removed == nil {
				removed = make(map[mle.Tag]bool)
			}
			removed[tag] = true
		}
		sealed, found := s.settleGet(tag, recs[j], status)
		results[i] = wire.GetResult{Found: found, Sealed: sealed}
	}
	return results, nil
}

// HasBatchAs reports, positionally, whether each tag is present,
// without fetching sealed values, counting hits, or refreshing recency
// — the existence probe behind HAS_BATCH (chunked dedup's
// missing-chunk transfer). Authorization uses PermGet: a tag the
// caller may not read reports absent rather than erroring, so answers
// are deny-without-information. The answer is a hint, not a promise; a
// probed-present entry can still expire or be evicted before a later
// Get. The authorized tags are probed in one engine call.
func (s *Store) HasBatchAs(app enclave.Measurement, tags []mle.Tag) ([]bool, error) {
	allowed, pos := s.authorizeBatch(app, tags, PermGet)
	if len(allowed) == 0 {
		return make([]bool, len(tags)), nil
	}
	got, err := s.eng.ContainsBatch(allowed)
	if err != nil || pos == nil {
		return got, err
	}
	present := make([]bool, len(tags))
	for j, p := range got {
		present[pos[j]] = p
	}
	return present, nil
}

// authorize checks app's permission for tag when an Authorizer is
// configured, counting a denial.
func (s *Store) authorize(app enclave.Measurement, tag mle.Tag, perm Permission) error {
	if s.cfg.Auth == nil {
		return nil
	}
	err := s.cfg.Auth.Authorize(app, tag, perm)
	if err != nil {
		s.statsMu.Lock()
		s.ops.Unauthorized++
		s.statsMu.Unlock()
	}
	return err
}

// authorizeBatch returns the tags app holds perm for, in order, with
// their positions in tags; each denied tag is counted. Without an
// Authorizer every tag is allowed and the positions are nil (the
// identity).
func (s *Store) authorizeBatch(app enclave.Measurement, tags []mle.Tag, perm Permission) ([]mle.Tag, []int) {
	if s.cfg.Auth == nil {
		return tags, nil
	}
	allowed := make([]mle.Tag, 0, len(tags))
	pos := make([]int, 0, len(tags))
	for i, tag := range tags {
		if s.authorize(app, tag, perm) == nil {
			allowed = append(allowed, tag)
			pos = append(pos, i)
		}
	}
	return allowed, pos
}

// Get looks up the computation tag, returning the (r, [k], [res])
// triple when found. How the lookup is served depends on the engine:
// the memory engine does one in-enclave dictionary access plus a blob
// fetch; the log engine consults its memtable, hot cache and sorted
// segments.
func (s *Store) Get(tag mle.Tag) (mle.Sealed, bool, error) {
	if s.getSeconds != nil {
		start := time.Now()
		defer func() { s.getSeconds.Observe(time.Since(start)) }()
	}
	rec, status, err := s.eng.Get(tag)
	if err != nil {
		return mle.Sealed{}, false, err
	}
	sealed, found := s.settleGet(tag, rec, status)
	return sealed, found, nil
}

// settleGet applies the store's policy to one engine lookup: an
// expired entry is collected, a dangling one dropped, and the lookup
// counted.
func (s *Store) settleGet(tag mle.Tag, rec storeengine.Record, status storeengine.GetStatus) (mle.Sealed, bool) {
	switch status {
	case storeengine.StatusExpired:
		s.remove(tag, reasonExpire)
		s.countGet(false)
		return mle.Sealed{}, false
	case storeengine.StatusDangling:
		// The entry was found (a hit, for accounting) but its value is
		// gone; drop it and report a miss so the application recomputes.
		s.countGet(true)
		s.remove(tag, reasonDangling)
		return mle.Sealed{}, false
	case storeengine.StatusHit:
		s.countGet(true)
		return mle.Sealed{
			Challenge:  rec.Challenge,
			WrappedKey: rec.WrappedKey,
			Blob:       rec.Blob,
		}, true
	default:
		s.countGet(false)
		return mle.Sealed{}, false
	}
}

// countGet folds one lookup into the op counters under a single lock
// acquisition, keeping Stats snapshots consistent (Hits <= Gets).
func (s *Store) countGet(hit bool) {
	s.statsMu.Lock()
	s.ops.Gets++
	if hit {
		s.ops.Hits++
	}
	s.statsMu.Unlock()
}

// Put stores a freshly computed sealed result for the tag on behalf of
// the application identified by owner. Duplicate tags keep the first
// stored version ("only one version of result ciphertext ... needs to
// be stored", Section IV-B Remark); installed reports whether this call
// created the entry.
func (s *Store) Put(owner enclave.Measurement, tag mle.Tag, sealed mle.Sealed) (installed bool, err error) {
	return s.put(owner, tag, sealed, putOpts{})
}

// PutReplace stores a sealed result, overwriting any existing entry
// for the tag. It is used when an application recomputed a result
// after the stored version failed the verification protocol (a
// poisoned or corrupted entry): without replacement the bad entry
// would be permanent, costing every future caller a recomputation.
// Replacement is still subject to authorization and quotas, so an
// adversary cannot use it to thrash the cache faster than its PUT rate
// allows.
func (s *Store) PutReplace(owner enclave.Measurement, tag mle.Tag, sealed mle.Sealed) (installed bool, err error) {
	return s.put(owner, tag, sealed, putOpts{replace: true})
}

// putOpts selects Put variants.
type putOpts struct {
	// restore bypasses authorization and rate limiting for
	// operator-initiated snapshot restores while keeping byte
	// accounting consistent.
	restore bool
	// replace removes any existing entry for the tag before inserting.
	replace bool
	// hits seeds the entry's hit counter (snapshot restore).
	hits int64
}

func (s *Store) put(owner enclave.Measurement, tag mle.Tag, sealed mle.Sealed, opts putOpts) (installed bool, err error) {
	if s.putSeconds != nil {
		start := time.Now()
		defer func() { s.putSeconds.Observe(time.Since(start)) }()
	}
	if !opts.restore {
		if err := s.authorize(owner, tag, PermPut); err != nil {
			return false, err
		}
	}
	if err := s.chargeQuota(owner, int64(len(sealed.Blob)), opts.restore); err != nil {
		return false, err
	}
	if opts.replace {
		// Drop any existing version before inserting. Not atomic with
		// the insert below: a concurrent Put can win the race, in
		// which case this call reports a duplicate — acceptable, since
		// any fresh version supersedes the bad one.
		s.remove(tag, reasonReplace)
	}
	rec := s.newRecord(owner, sealed, opts.hits)
	installed, err = s.eng.Insert(tag, rec)
	if err != nil {
		s.quota.creditBytes(owner, rec.BlobSize)
		return false, err
	}
	s.settlePut(owner, rec.BlobSize, installed)
	if installed {
		s.enforceLimits()
	}
	return installed, nil
}

// PutBatchAs answers a PUT_BATCH on behalf of owner: one wire.PutResult
// per item, positionally, with the effect of Put (or PutReplace, for
// Replace items) on each item in order. Authorization and quota
// denials answer OK=false with the reason; a duplicate is OK. An error
// means the engine failed, and the batch may then be partly applied.
//
// Admitted items reach the engine in runs, one InsertBatch each — for
// the memory engine two store ECALLs per run, however long. The engine
// keeps the first copy of a tag repeated within a run, as sequential
// PUTs would. A run ends before an item whose outcome could depend on
// the run's own: a Replace item (its removal must follow the run's
// inserts), or a byte-quota check that the run's pending duplicate
// refunds could change; and right after an item that could take the
// store past MaxEntries or MaxBlobBytes, so eviction runs where n
// single PUTs would run it. A batch therefore never costs more
// crossings than n single PUTs, and without caps, quota pressure or
// Replace items it is one run.
func (s *Store) PutBatchAs(owner enclave.Measurement, items []wire.PutItem) ([]wire.PutResult, error) {
	if s.putSeconds != nil {
		start := time.Now()
		defer func() { s.putSeconds.Observe(time.Since(start)) }()
	}
	results := make([]wire.PutResult, len(items))
	var (
		pos      = make([]int, 0, len(items)) // run positions in items
		tags     = make([]mle.Tag, 0, len(items))
		recs     = make([]storeengine.Record, 0, len(items))
		runBytes int64
	)
	flush := func() error {
		if len(tags) == 0 {
			return nil
		}
		defer func() { pos, tags, recs, runBytes = pos[:0], tags[:0], recs[:0], 0 }()
		installed, err := s.eng.InsertBatch(tags, recs)
		if err != nil {
			for _, rec := range recs {
				s.quota.creditBytes(owner, rec.BlobSize)
			}
			return err
		}
		grew := false
		for j, i := range pos {
			s.settlePut(owner, recs[j].BlobSize, installed[j])
			results[i] = wire.PutResult{OK: true}
			grew = grew || installed[j]
		}
		if grew {
			s.enforceLimits()
		}
		return nil
	}
	for i, it := range items {
		blobLen := int64(len(it.Sealed.Blob))
		if err := s.authorize(owner, it.Tag, PermPut); err != nil {
			results[i] = wire.PutResult{Err: err.Error()}
			continue
		}
		if it.Replace || !s.quota.fits(owner, blobLen) {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		if err := s.chargeQuota(owner, blobLen, false); err != nil {
			results[i] = wire.PutResult{Err: err.Error()}
			continue
		}
		if it.Replace {
			s.remove(it.Tag, reasonReplace)
		}
		pos = append(pos, i)
		tags = append(tags, it.Tag)
		recs = append(recs, s.newRecord(owner, it.Sealed, 0))
		runBytes += blobLen
		if s.mayExceedCaps(len(tags), runBytes) {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return results, nil
}

// chargeQuota admits an upload of n bytes against owner's quota,
// counting a denial. restore skips the rate limit.
func (s *Store) chargeQuota(owner enclave.Measurement, n int64, restore bool) error {
	if ok, reason := s.quota.allowPut(owner, n, restore); !ok {
		s.statsMu.Lock()
		s.ops.PutDenied++
		s.statsMu.Unlock()
		return fmt.Errorf("%w: %s", ErrQuota, reason)
	}
	return nil
}

// newRecord builds the engine record for an admitted upload.
func (s *Store) newRecord(owner enclave.Measurement, sealed mle.Sealed, hits int64) storeengine.Record {
	return storeengine.Record{
		Challenge:  append([]byte(nil), sealed.Challenge...),
		WrappedKey: append([]byte(nil), sealed.WrappedKey...),
		Blob:       sealed.Blob,
		BlobSize:   int64(len(sealed.Blob)),
		Owner:      owner,
		Hits:       hits,
		LastTouch:  s.cfg.Now(),
	}
}

// settlePut counts one engine insert outcome; a duplicate gives its
// quota bytes back.
func (s *Store) settlePut(owner enclave.Measurement, blobLen int64, installed bool) {
	s.statsMu.Lock()
	if installed {
		s.ops.Puts++
	} else {
		s.ops.PutDupes++
	}
	s.statsMu.Unlock()
	if !installed {
		s.quota.creditBytes(owner, blobLen)
	}
}

// mayExceedCaps reports whether installing a pending run of n records
// holding blobBytes could take the store past MaxEntries or
// MaxBlobBytes.
func (s *Store) mayExceedCaps(n int, blobBytes int64) bool {
	return (s.cfg.MaxEntries > 0 && s.eng.Len()+n > s.cfg.MaxEntries) ||
		(s.cfg.MaxBlobBytes > 0 && s.eng.ValueBytes()+blobBytes > s.cfg.MaxBlobBytes)
}

// enforceLimits evicts least-recently-used entries until the global
// MaxEntries/MaxBlobBytes caps are respected. The victim is the
// engine's globally least-recent entry regardless of where it lives
// (eviction fairness across shards and tiers).
func (s *Store) enforceLimits() {
	if s.cfg.MaxEntries <= 0 && s.cfg.MaxBlobBytes <= 0 {
		return
	}
	// Bound the loop: one pass can only need to evict as many entries
	// as exist.
	limit := s.eng.Len() + 1
	for i := 0; i < limit; i++ {
		overEntries := s.cfg.MaxEntries > 0 && s.eng.Len() > s.cfg.MaxEntries
		overBytes := s.cfg.MaxBlobBytes > 0 && s.eng.ValueBytes() > s.cfg.MaxBlobBytes
		if !overEntries && !overBytes {
			return
		}
		victim, ok := s.eng.Oldest()
		if !ok {
			return
		}
		s.remove(victim, reasonEvict)
	}
}

// ExpireNow sweeps the dictionary, removing every entry past its TTL,
// and reports how many were removed. A no-op without a configured TTL.
func (s *Store) ExpireNow() int {
	if s.cfg.TTL <= 0 {
		return 0
	}
	var stale []mle.Tag
	_ = s.eng.Iterate(func(tag mle.Tag, rec storeengine.Record) bool {
		if s.cfg.Now().Sub(rec.LastTouch) > s.cfg.TTL {
			stale = append(stale, tag)
		}
		return true
	})
	removed := 0
	for _, tag := range stale {
		if s.remove(tag, reasonExpire) {
			removed++
		}
	}
	return removed
}

// deleteReason distinguishes why an entry is removed, for accurate
// statistics.
type deleteReason int

const (
	reasonEvict deleteReason = iota + 1
	reasonExpire
	reasonDangling
	reasonReplace
)

// remove deletes an entry through the engine and settles quota and
// stats accounting. It reports whether the entry existed.
func (s *Store) remove(tag mle.Tag, reason deleteReason) bool {
	rec, ok, _ := s.eng.Remove(tag)
	if !ok {
		return false
	}
	switch reason {
	case reasonEvict:
		s.statsMu.Lock()
		s.ops.Evictions++
		s.statsMu.Unlock()
	case reasonExpire:
		s.statsMu.Lock()
		s.ops.Expired++
		s.statsMu.Unlock()
	}
	s.quota.creditBytes(rec.Owner, rec.BlobSize)
	return true
}

// Stats returns a snapshot of the store's counters. The operation
// counters are copied under their lock, so the snapshot is internally
// consistent; occupancy comes from the engine.
func (s *Store) Stats() Stats {
	s.statsMu.Lock()
	st := s.ops
	s.statsMu.Unlock()
	st.Entries = s.eng.Len()
	st.BlobBytes = s.eng.ValueBytes()
	return st
}

// EngineStats returns the active engine's occupancy and activity
// snapshot (WAL/segment/cache counters are zero on the memory engine).
func (s *Store) EngineStats() storeengine.Stats {
	return s.eng.Stats()
}

// Len reports the number of dictionary entries.
func (s *Store) Len() int {
	return s.eng.Len()
}

// AppBytes reports the resident ciphertext bytes attributed to an
// application for quota purposes.
func (s *Store) AppBytes(owner enclave.Measurement) int64 {
	return s.quota.bytesOf(owner)
}

// Close marks the store closed. Subsequent Get/Put return ErrClosed.
// With the log engine, Close flushes and releases the on-disk state.
func (s *Store) Close() {
	s.closed.Store(true)
	_ = s.eng.Close()
}

// Compact triggers a full segment compaction on engines that support
// it (the log engine); a no-op otherwise.
func (s *Store) Compact() error {
	if c, ok := s.eng.(interface{ CompactNow() error }); ok {
		return c.CompactNow()
	}
	return nil
}

// Crash abandons the store without flushing or syncing — the on-disk
// state a kill -9 would leave behind. The persistence benchmark and
// crash tests use it to measure recovery of acknowledged PUTs; on
// engines without crash simulation it degrades to Close.
func (s *Store) Crash() {
	s.closed.Store(true)
	if c, ok := s.eng.(interface{ Crash() }); ok {
		c.Crash()
		return
	}
	_ = s.eng.Close()
}

// Closed reports whether Close has been called.
func (s *Store) Closed() bool {
	return s.closed.Load()
}

// ExportEntry is a replication record: everything needed to install the
// result at another store.
type ExportEntry struct {
	Tag    mle.Tag
	Sealed mle.Sealed
	Hits   int64
	Owner  enclave.Measurement
}

// exportHeap is a min-heap by hits, keeping the top-max hottest
// entries with bounded memory while the engine streams records.
type exportHeap []ExportEntry

func (h exportHeap) Len() int           { return len(h) }
func (h exportHeap) Less(i, j int) bool { return h[i].Hits < h[j].Hits }
func (h exportHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *exportHeap) Push(x any)        { *h = append(*h, x.(ExportEntry)) }
func (h *exportHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// ExportHotAs returns up to max entries with at least minHits hits,
// most frequently hit first, on behalf of the attested application app.
// It backs the wire-level SYNC_PULL request (cluster.Syncer): a remote
// puller gets the store's popular results without walking the whole
// dictionary, and — when controlled deduplication is configured — only
// the entries it is authorized to read. max values outside (0,
// wire.MaxBatchItems] are clamped by the server; a non-positive max
// here means unlimited.
//
// The walk streams through the engine's bounded iterator holding at
// most max candidate entries, so it works on log-engine stores whose
// keyspace does not fit in memory.
func (s *Store) ExportHotAs(app enclave.Measurement, minHits int64, max int) ([]ExportEntry, error) {
	var (
		top exportHeap
		all []ExportEntry
	)
	err := s.eng.Iterate(func(tag mle.Tag, rec storeengine.Record) bool {
		if rec.Hits < minHits {
			return true
		}
		if s.cfg.Auth != nil {
			if aerr := s.cfg.Auth.Authorize(app, tag, PermGet); aerr != nil {
				return true // deny without information, as for GET
			}
		}
		e := ExportEntry{
			Tag: tag,
			Sealed: mle.Sealed{
				Challenge:  rec.Challenge,
				WrappedKey: rec.WrappedKey,
				Blob:       rec.Blob,
			},
			Hits:  rec.Hits,
			Owner: rec.Owner,
		}
		if max > 0 {
			if len(top) < max {
				heap.Push(&top, e)
			} else if e.Hits > top[0].Hits {
				top[0] = e
				heap.Fix(&top, 0)
			}
		} else {
			all = append(all, e)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	entries := all
	if max > 0 {
		entries = []ExportEntry(top)
	}
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].Hits > entries[j].Hits
	})
	return entries, nil
}

// Export returns entries with at least minHits hits, used by the
// master-store synchronization of Section IV-B ("periodically
// synchronizes the popular (i.e., frequently appeared) results").
func (s *Store) Export(minHits int64) ([]ExportEntry, error) {
	var out []ExportEntry
	err := s.eng.Iterate(func(tag mle.Tag, rec storeengine.Record) bool {
		if rec.Hits < minHits {
			return true
		}
		out = append(out, ExportEntry{
			Tag: tag,
			Sealed: mle.Sealed{
				Challenge:  rec.Challenge,
				WrappedKey: rec.WrappedKey,
				Blob:       rec.Blob,
			},
			Hits:  rec.Hits,
			Owner: rec.Owner,
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
