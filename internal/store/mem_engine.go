package store

import (
	"container/list"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
	"speed/internal/telemetry"
)

// memEngine is the default storage engine: the original lock-striped
// sharded dictionary with a global LRU, entirely in (enclave) memory
// and volatile across restarts. Its behavior is the pre-seam Store's:
// the same enclave Alloc/Free charging per entry, the same oblivious
// all-shard scan, and the same globally-least-recent eviction victim.
// Store ECALLs are counted per request, not per tag: one per GET,
// GET_BATCH or HAS_BATCH, and two per PUT or PUT_BATCH (a duplicate
// check, then the insert, with blob storage and enclave charging in
// between, outside the enclave).
type memEngine struct {
	enclave   *enclave.Enclave
	blobs     BlobStore
	oblivious bool
	ttl       time.Duration
	now       func() time.Time

	shards    []*shard
	shardMask uint32

	// Global occupancy accounting, shared by all shards: the dictionary
	// entry count and the resident ciphertext bytes.
	entries   atomic.Int64
	blobTotal atomic.Int64

	closed atomic.Bool
}

var _ storeengine.Engine = (*memEngine)(nil)

// entry is the small in-enclave dictionary record: the challenge r, the
// wrapped key [k], and a pointer to the out-of-enclave ciphertext
// (Section IV-B: "the dictionary entry is designed to be small").
type entry struct {
	challenge  []byte
	wrappedKey []byte
	blobID     BlobID
	blobSize   int64
	owner      enclave.Measurement
	hits       int64
	lastTouch  time.Time
	lruElem    *list.Element
}

func (e *entry) enclaveBytes() int64 {
	return entryOverhead + int64(len(e.challenge)+len(e.wrappedKey))
}

// shard is one lock stripe of the dictionary: its own map and LRU
// list, so GETs and PUTs for different tags proceed in parallel on
// different cores.
type shard struct {
	mu   sync.Mutex
	dict map[mle.Tag]*entry
	lru  *list.List // front = most recent; values are mle.Tag
}

// newMemEngine builds the sharded in-memory engine. shards is rounded
// up to a power of two as before.
func newMemEngine(enc *enclave.Enclave, blobs BlobStore, shards int, oblivious bool, ttl time.Duration, now func() time.Time) *memEngine {
	n := shards
	if n <= 0 {
		n = defaultShards
	}
	if n > maxShards {
		n = maxShards
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n)) // round up to a power of two
	}
	m := &memEngine{
		enclave:   enc,
		blobs:     blobs,
		oblivious: oblivious,
		ttl:       ttl,
		now:       now,
		shards:    make([]*shard, n),
		shardMask: uint32(n - 1),
	}
	for i := range m.shards {
		m.shards[i] = &shard{dict: make(map[mle.Tag]*entry), lru: list.New()}
	}
	return m
}

func (m *memEngine) Name() string  { return "memory" }
func (m *memEngine) Durable() bool { return false }

// shardFor selects a tag's home shard. Tags are outputs of a
// cryptographic hash, so any fixed window of bits is uniform.
func (m *memEngine) shardFor(tag mle.Tag) *shard {
	return m.shards[binary.BigEndian.Uint32(tag[:4])&m.shardMask]
}

// ShardCount reports the number of dictionary shards.
func (m *memEngine) ShardCount() int { return len(m.shards) }

// expiredLocked reports whether the entry is past its TTL. Caller
// holds the entry's shard lock.
func (m *memEngine) expiredLocked(e *entry) bool {
	return m.ttl > 0 && m.now().Sub(e.lastTouch) > m.ttl
}

// Get implements engine.Engine. The dictionary access happens inside
// the store enclave (one ECALL); the ciphertext is fetched from
// untrusted storage outside.
func (m *memEngine) Get(tag mle.Tag) (storeengine.Record, storeengine.GetStatus, error) {
	var (
		rec    storeengine.Record
		blobID BlobID
		status storeengine.GetStatus
	)
	err := m.enclave.ECall(func() error {
		if m.closed.Load() {
			return ErrClosed
		}
		rec, blobID, status = m.lookup(tag)
		return nil
	})
	if err != nil {
		return storeengine.Record{}, storeengine.StatusMiss, err
	}
	rec, status = m.fetchBlob(rec, blobID, status)
	return rec, status, nil
}

// GetBatch implements engine.Engine: every dictionary lookup of the
// batch runs inside one ECALL, then the ciphertexts are fetched
// outside.
func (m *memEngine) GetBatch(tags []mle.Tag) ([]storeengine.Record, []storeengine.GetStatus, error) {
	recs := make([]storeengine.Record, len(tags))
	statuses := make([]storeengine.GetStatus, len(tags))
	blobIDs := make([]BlobID, len(tags))
	err := m.enclave.ECall(func() error {
		if m.closed.Load() {
			return ErrClosed
		}
		for i, tag := range tags {
			recs[i], blobIDs[i], statuses[i] = m.lookup(tag)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i := range recs {
		recs[i], statuses[i] = m.fetchBlob(recs[i], blobIDs[i], statuses[i])
	}
	return recs, statuses, nil
}

// visit runs fn on the tag's entry (nil when absent) with its home
// shard locked. Oblivious engines scan every shard with identical
// per-entry work, so the access pattern reveals neither the entry nor
// the shard. Caller is inside the store enclave.
func (m *memEngine) visit(tag mle.Tag, fn func(sh *shard, e *entry)) {
	home := m.shardFor(tag)
	if !m.oblivious {
		home.mu.Lock()
		fn(home, home.dict[tag])
		home.mu.Unlock()
		return
	}
	for _, sh := range m.shards {
		sh.mu.Lock()
		e := obliviousLookupLocked(sh, tag)
		if sh == home {
			fn(sh, e)
		}
		sh.mu.Unlock()
	}
}

// lookup is one tag's dictionary access inside the store enclave: a
// hit counts, refreshes recency (non-oblivious only) and copies the
// metadata out; an expired entry is left for the caller to collect
// lazily.
func (m *memEngine) lookup(tag mle.Tag) (rec storeengine.Record, blobID BlobID, status storeengine.GetStatus) {
	m.visit(tag, func(sh *shard, e *entry) {
		switch {
		case e == nil:
		case m.expiredLocked(e):
			status = storeengine.StatusExpired
		default:
			e.hits++
			if !m.oblivious {
				// LRU maintenance and freshness updates reveal which
				// entry was touched; they only run in the non-oblivious
				// path.
				sh.lru.MoveToFront(e.lruElem)
				e.lastTouch = m.now()
			}
			rec, blobID, status = m.recordLocked(e), e.blobID, storeengine.StatusHit
		}
	})
	return rec, blobID, status
}

// fetchBlob completes a hit with its ciphertext from untrusted storage,
// outside the enclave. A lost or corrupted blob turns the hit into
// StatusDangling: the caller drops the entry and treats the lookup as
// a miss (the application would reject the result at verification
// anyway). Non-hits come back as zero records.
func (m *memEngine) fetchBlob(rec storeengine.Record, blobID BlobID, status storeengine.GetStatus) (storeengine.Record, storeengine.GetStatus) {
	if status != storeengine.StatusHit {
		return storeengine.Record{}, status
	}
	blob, err := m.blobs.Get(blobID)
	if err != nil {
		return storeengine.Record{}, storeengine.StatusDangling
	}
	rec.Blob = blob
	return rec, storeengine.StatusHit
}

// ContainsBatch implements engine.Engine: pure existence probes with no
// hit count, LRU or freshness side effects, answered inside one ECALL.
// Oblivious engines reuse the all-shard constant-work scan, so probes
// are as access-pattern-uniform as lookups.
func (m *memEngine) ContainsBatch(tags []mle.Tag) ([]bool, error) {
	present := make([]bool, len(tags))
	err := m.enclave.ECall(func() error {
		if m.closed.Load() {
			return ErrClosed
		}
		for i, tag := range tags {
			m.visit(tag, func(_ *shard, e *entry) {
				present[i] = e != nil && !m.expiredLocked(e)
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return present, nil
}

// recordLocked copies an entry's metadata out; caller holds the shard
// lock. The blob is fetched separately, outside the enclave.
func (m *memEngine) recordLocked(e *entry) storeengine.Record {
	return storeengine.Record{
		Challenge:  append([]byte(nil), e.challenge...),
		WrappedKey: append([]byte(nil), e.wrappedKey...),
		BlobSize:   e.blobSize,
		Owner:      e.owner,
		Hits:       e.hits,
		LastTouch:  e.lastTouch,
	}
}

// Insert implements engine.Engine, preserving the pre-seam PUT
// sequence: duplicate-check first under the shard lock (inside the
// enclave); only store the blob outside if this is a fresh tag; then
// insert under the lock again, cleaning up if a concurrent identical
// PUT won the race.
func (m *memEngine) Insert(tag mle.Tag, rec storeengine.Record) (bool, error) {
	dupe := false
	err := m.enclave.ECall(func() error {
		if m.closed.Load() {
			return ErrClosed
		}
		dupe = m.hasEntry(tag)
		return nil
	})
	if err != nil || dupe {
		return false, err
	}
	e, err := m.prepare(rec)
	if err != nil {
		return false, err
	}
	installed := false
	err = m.enclave.ECall(func() error {
		if m.closed.Load() {
			return ErrClosed
		}
		installed = m.install(tag, e)
		return nil
	})
	if err != nil || !installed {
		m.discard(e)
		return false, err
	}
	return true, nil
}

// InsertBatch implements engine.Engine with Insert's sequence for the
// whole batch: one ECALL duplicate-checks every tag, the fresh items'
// blobs are stored and their entries charged outside, and one more
// ECALL installs them in order. A tag repeated in the batch loses the
// install race to its first copy and is cleaned up like a concurrent
// identical PUT.
func (m *memEngine) InsertBatch(tags []mle.Tag, recs []storeengine.Record) ([]bool, error) {
	installed := make([]bool, len(tags))
	err := m.enclave.ECall(func() error {
		if m.closed.Load() {
			return ErrClosed
		}
		for i, tag := range tags {
			installed[i] = !m.hasEntry(tag)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	entries := make([]*entry, len(tags))
	for i := range tags {
		if !installed[i] {
			continue
		}
		if entries[i], err = m.prepare(recs[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = m.enclave.ECall(func() error {
			if m.closed.Load() {
				return ErrClosed
			}
			for i, e := range entries {
				if e != nil {
					installed[i] = m.install(tags[i], e)
				}
			}
			return nil
		})
	}
	for i, e := range entries {
		if e != nil && (err != nil || !installed[i]) {
			m.discard(e)
		}
	}
	if err != nil {
		return nil, err
	}
	return installed, nil
}

// hasEntry is the PUT duplicate check inside the store enclave: any
// entry, live or stale, keeps the first stored version.
func (m *memEngine) hasEntry(tag mle.Tag) bool {
	sh := m.shardFor(tag)
	sh.mu.Lock()
	_, ok := sh.dict[tag]
	sh.mu.Unlock()
	return ok
}

// prepare stores a fresh record's blob in untrusted storage and charges
// its dictionary entry against the enclave, outside the enclave.
func (m *memEngine) prepare(rec storeengine.Record) (*entry, error) {
	blobID, err := m.blobs.Put(rec.Blob)
	if err != nil {
		return nil, fmt.Errorf("store blob: %w", err)
	}
	e := &entry{
		challenge:  append([]byte(nil), rec.Challenge...),
		wrappedKey: append([]byte(nil), rec.WrappedKey...),
		blobID:     blobID,
		blobSize:   int64(len(rec.Blob)),
		owner:      rec.Owner,
		hits:       rec.Hits,
		lastTouch:  rec.LastTouch,
	}
	if err := m.enclave.Alloc(e.enclaveBytes()); err != nil {
		_ = m.blobs.Delete(blobID)
		return nil, fmt.Errorf("metadata allocation: %w", err)
	}
	return e, nil
}

// install links a prepared entry into the dictionary inside the store
// enclave. It reports false when the tag gained an entry since the
// duplicate check (a concurrent identical PUT won the race); the caller
// then discards e.
func (m *memEngine) install(tag mle.Tag, e *entry) bool {
	sh := m.shardFor(tag)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.dict[tag]; ok {
		return false
	}
	e.lruElem = sh.lru.PushFront(tag)
	sh.dict[tag] = e
	m.entries.Add(1)
	m.blobTotal.Add(e.blobSize)
	return true
}

// discard releases a prepared entry that was not installed.
func (m *memEngine) discard(e *entry) {
	_ = m.blobs.Delete(e.blobID)
	m.enclave.Free(e.enclaveBytes())
}

// Remove implements engine.Engine: it deletes the entry, releasing its
// enclave memory and blob, and returns the removed record's metadata
// so the caller can settle quota accounting.
func (m *memEngine) Remove(tag mle.Tag) (storeengine.Record, bool, error) {
	sh := m.shardFor(tag)
	sh.mu.Lock()
	e, ok := sh.dict[tag]
	if ok {
		delete(sh.dict, tag)
		sh.lru.Remove(e.lruElem)
		m.entries.Add(-1)
		m.blobTotal.Add(-e.blobSize)
	}
	sh.mu.Unlock()
	if !ok {
		return storeengine.Record{}, false, nil
	}
	m.enclave.Free(e.enclaveBytes())
	_ = m.blobs.Delete(e.blobID)
	return storeengine.Record{
		BlobSize:  e.blobSize,
		Owner:     e.owner,
		Hits:      e.hits,
		LastTouch: e.lastTouch,
	}, true, nil
}

// Len implements engine.Engine.
func (m *memEngine) Len() int { return int(m.entries.Load()) }

// ValueBytes implements engine.Engine. It reports what the blob store
// holds, as the pre-seam Stats did.
func (m *memEngine) ValueBytes() int64 { return m.blobs.Bytes() }

// Iterate implements engine.Engine. Memory stays bounded by one
// shard's metadata plus one blob: each shard's references are copied
// under its lock, then blobs are fetched and records yielded outside
// the lock (an entry racing with eviction is skipped).
func (m *memEngine) Iterate(fn func(tag mle.Tag, rec storeengine.Record) bool) error {
	type ref struct {
		tag mle.Tag
		rec storeengine.Record
		id  BlobID
	}
	var refs []ref // reused across shards
	for _, sh := range m.shards {
		refs = refs[:0]
		err := m.enclave.ECall(func() error {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			for tag, e := range sh.dict {
				refs = append(refs, ref{tag: tag, rec: m.recordLocked(e), id: e.blobID})
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, r := range refs {
			blob, err := m.blobs.Get(r.id)
			if err != nil {
				continue // entry raced with eviction
			}
			r.rec.Blob = blob
			if !fn(r.tag, r.rec) {
				return nil
			}
		}
	}
	return nil
}

// Oldest implements engine.Engine: each shard's LRU tail is its local
// least-recent entry, and lastTouch orders the tails globally.
func (m *memEngine) Oldest() (mle.Tag, bool) {
	var (
		best  mle.Tag
		bestT time.Time
		found bool
	)
	for _, sh := range m.shards {
		sh.mu.Lock()
		if el := sh.lru.Back(); el != nil {
			if tag, ok := el.Value.(mle.Tag); ok {
				e := sh.dict[tag]
				if e != nil && (!found || e.lastTouch.Before(bestT)) {
					best, bestT, found = tag, e.lastTouch, true
				}
			}
		}
		sh.mu.Unlock()
	}
	return best, found
}

// Stats implements engine.Engine.
func (m *memEngine) Stats() storeengine.Stats {
	return storeengine.Stats{
		Entries:    m.Len(),
		ValueBytes: m.ValueBytes(),
	}
}

// Checkpoint implements engine.Engine; the memory engine has nothing
// to make durable.
func (m *memEngine) Checkpoint() error { return nil }

// Close implements engine.Engine. As before the seam, closing only
// marks the engine: Get/Insert fail with ErrClosed while Iterate and
// Oldest keep working, so a final Export or snapshot is still
// possible via the structures that remain in memory.
func (m *memEngine) Close() error {
	m.closed.Store(true)
	return nil
}

// RegisterTelemetry adds the memory engine's per-shard occupancy
// gauges, preserving the pre-seam speed_store_shard_entries metric.
func (m *memEngine) RegisterTelemetry(reg *telemetry.Registry) {
	for i := range m.shards {
		sh := m.shards[i]
		reg.NewGaugeFunc("speed_store_shard_entries", "dictionary entries per shard",
			func() float64 {
				sh.mu.Lock()
				n := len(sh.dict)
				sh.mu.Unlock()
				return float64(n)
			}, telemetry.L("shard", strconv.Itoa(i)))
	}
}

// obliviousLookupLocked scans every entry of one shard with a
// constant-time tag comparison, doing identical work for every entry
// regardless of where (or whether) the tag matches. Caller holds the
// shard lock inside the store enclave.
func obliviousLookupLocked(sh *shard, tag mle.Tag) *entry {
	var found *entry
	for k := range sh.dict {
		k := k
		match := subtle.ConstantTimeCompare(k[:], tag[:])
		// Branchless-ish select: always read the entry, conditionally
		// retain it.
		e := sh.dict[k]
		if match == 1 {
			found = e
		}
	}
	return found
}
