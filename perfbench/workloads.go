package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"speed/internal/chunk"
	"speed/internal/compress"
	"speed/internal/dedup"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/store/logengine"
	"speed/internal/workload"
)

// workloadRunner is one named workload. setup builds every input from
// the seed and a deployment ready for the first timed call, with its
// calls traced into tr when tr is non-nil; run drives timed calls into
// p until the deadline; check reports how many calls broke the
// workload's declared outcome mix, and why.
type workloadRunner interface {
	setup(seed int64, workDir string, tr *tracer) error
	run(deadline time.Time, p *phase) error
	check(p *phase) (violations int64, why []string)
	config() []string
	close()
}

var workloads = map[string]func() workloadRunner{
	"hit-small":     func() workloadRunner { return &hitSmall{inputs: 4096, callers: 2} },
	"write-log":     func() workloadRunner { return &writeLog{fresh: 4096, callers: 2} },
	"chunk-neardup": func() workloadRunner { return &chunkNearDup{docs: 256} },
}

var workloadOrder = []string{"hit-small", "write-log", "chunk-neardup"}

const (
	smallInputBytes = 4 << 10
	// pickStream is the length of each caller's pre-generated choice
	// stream; a caller that outruns it starts over.
	pickStream = 1 << 17
)

func compressFn(in []byte) ([]byte, error) { return compress.Compress(in), nil }

// digestSeed keys the result digests. Expected and returned results are
// digested in the same process; maphash keeps the check cheap next to
// the calls it checks.
var digestSeed = maphash.MakeSeed()

func digest(b []byte) uint64 { return maphash.Bytes(digestSeed, b) }

// textInputs generates n distinct 4 KiB text inputs and the digest and
// length of compress.Compress on each.
func textInputs(src *workload.Source, n int) (inputs [][]byte, want []uint64, resultLen []int) {
	inputs = make([][]byte, n)
	want = make([]uint64, n)
	resultLen = make([]int, n)
	for i := range inputs {
		inputs[i] = src.Text(smallInputBytes)
		r := compress.Compress(inputs[i])
		want[i] = digest(r)
		resultLen[i] = len(r)
	}
	return inputs, want, resultLen
}

func tagsOf(id mle.FuncID, inputs [][]byte) []mle.Tag {
	tags := make([]mle.Tag, len(inputs))
	for i, in := range inputs {
		tags[i] = mle.ComputeTag(id, in)
	}
	return tags
}

// caller is one application thread: it issues a call, blocks until it
// returns, and records the call's latency, compute time and outcome.
type caller struct {
	a        *app
	tr       *tracer
	fn       func([]byte) ([]byte, error)
	timedFn  func([]byte) ([]byte, error)
	computed time.Duration
	samples  []callSample
	errors   int64
	wrong    int64
}

func newCaller(a *app, tr *tracer, fn func([]byte) ([]byte, error)) *caller {
	c := &caller{a: a, tr: tr, fn: fn}
	c.timedFn = c.timedCompute
	return c
}

func (c *caller) timedCompute(in []byte) ([]byte, error) {
	start := time.Now()
	r, err := c.fn(in)
	c.computed = time.Since(start)
	return r, err
}

// call executes in, whose tag is tag, and compares the result with its
// set-up digest.
func (c *caller) call(tag mle.Tag, in []byte, want uint64) dedup.Outcome {
	c.computed = 0
	ct := c.tr.begin(tag)
	start := time.Now()
	res, out, err := c.a.rt.Execute(c.a.id, in, c.timedFn)
	lat := time.Since(start)
	ok := err == nil && digest(res) == want
	c.tr.end(ct, lat, c.computed, out, ok)
	switch {
	case err != nil:
		c.errors++
		if c.errors == 1 {
			fmt.Fprintf(os.Stderr, "perfbench: execute failed: %v\n", err)
		}
		return 0
	case !ok:
		c.wrong++
	}
	c.samples = append(c.samples, callSample{lat: lat, compute: c.computed, outcome: out})
	return out
}

// closedLoop runs the callers concurrently until the deadline or until
// body reports that no work is left; each caller issues its next call
// only when the previous one has returned. Their records are merged
// into p.
func closedLoop(p *phase, callers []*caller, deadline time.Time, body func(c *caller, idx, k int) bool) {
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				if !body(c, i, k) {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range callers {
		p.add(c)
	}
}

// ---- hit-small ----

// hitSmall: every result is stored during set-up, then callers share
// one runtime and one connection and pick inputs by Zipf popularity, so
// every timed call is a reuse (or coalesces with one in flight).
type hitSmall struct {
	inputs, callers int

	in        [][]byte
	want      []uint64
	resultLen []int
	tags      []mle.Tag
	picks     [][]int
	dep       *deployment
	a         *app
	tr        *tracer
	prepop    []callSample
}

func hitPicks(src *workload.Source, callers, inputs int) [][]int {
	picks := make([][]int, callers)
	for i := range picks {
		picks[i] = src.ZipfIndices(pickStream, inputs)
	}
	return picks
}

func (w *hitSmall) setup(seed int64, _ string, tr *tracer) error {
	w.tr = tr
	src := workload.New(seed)
	w.in, w.want, w.resultLen = textInputs(src, w.inputs)
	w.picks = hitPicks(src, w.callers, w.inputs)
	var err error
	if w.dep, err = newDeployment(store.Config{}); err != nil {
		return err
	}
	if w.a, err = w.dep.addApp("hit-app", 0, tr); err != nil {
		return err
	}
	w.tags = tagsOf(w.a.id, w.in)
	c := newCaller(w.a, nil, compressFn)
	for i := range w.in {
		if out := c.call(w.tags[i], w.in[i], w.want[i]); out != dedup.OutcomeComputed || c.wrong > 0 {
			return fmt.Errorf("hit-small: pre-populating input %d gave %v (wrong outputs %d)", i, out, c.wrong)
		}
	}
	w.prepop = c.samples
	return nil
}

func (w *hitSmall) run(deadline time.Time, p *phase) error {
	callers := make([]*caller, w.callers)
	for i := range callers {
		callers[i] = newCaller(w.a, w.tr, compressFn)
	}
	p.interval(w.dep, func() {
		closedLoop(p, callers, deadline, func(c *caller, idx, k int) bool {
			i := w.picks[idx][k%pickStream]
			c.call(w.tags[i], w.in[i], w.want[i])
			return true
		})
	})
	p.storedBytes += w.dep.st.Stats().BlobBytes
	for _, n := range w.resultLen {
		p.resultBytes += int64(n)
	}
	return nil
}

func (w *hitSmall) check(p *phase) (int64, []string) {
	n := p.outcomes()
	var why []string
	bad := n[dedup.OutcomeComputed] + n[dedup.OutcomeRecomputed]
	if bad > 0 {
		why = append(why, fmt.Sprintf("%d computed calls, want 0", bad))
	}
	if r := ratio(n[dedup.OutcomeReused], int64(len(p.samples))); r < 0.95 {
		why = append(why, fmt.Sprintf("reused share %.3f, want >= 0.95", r))
		bad++
	}
	return bad, why
}

func (w *hitSmall) config() []string {
	return []string{
		fmt.Sprintf("inputs=%d x %d B workload.Text, compute=compress.Compress, all stored in set-up", w.inputs, smallInputBytes),
		fmt.Sprintf("callers=%d closed loop, one runtime, one mux connection, Zipf(1.1) picks", w.callers),
		"store engine=memory",
	}
}

func (w *hitSmall) close() {
	if w.dep != nil {
		w.dep.close()
	}
}

// ---- write-log ----

// Log-engine sizes for write-log: small enough that one round's working
// set is several times memtable plus cache. The WAL is not synced per
// insert: a per-insert fsync puts the shared disk's flush latency, not
// the program, in every miss (see README.md). Flushes still sync their
// segments and the manifest.
const (
	logMemtableBytes = 512 << 10
	logCacheBytes    = 512 << 10
	writeFreshShare  = 0.7
	logFsync         = "none"
)

// writeLog: 70% of calls compute, seal, PUT and log a fresh input;
// 30% re-execute an input already written. A round uses up the fresh
// pool against a new log-engine store in a new data directory; rounds
// repeat until the deadline, and the set-up between rounds is not
// timed.
type writeLog struct {
	fresh, callers int

	in          [][]byte
	want        []uint64
	resultLen   []int
	tags        []mle.Tag
	coins       [][]float32
	workDir     string
	dep         *deployment
	a           *app
	tr          *tracer
	rounds      int
	compactions int64

	next    atomic.Int64
	mu      sync.Mutex
	written []int32
}

func writeCoins(seed int64, callers int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	coins := make([][]float32, callers)
	for i := range coins {
		coins[i] = make([]float32, 2*pickStream)
		for j := range coins[i] {
			coins[i][j] = rng.Float32()
		}
	}
	return coins
}

func (w *writeLog) setup(seed int64, workDir string, tr *tracer) error {
	w.in, w.want, w.resultLen = textInputs(workload.New(seed), w.fresh)
	w.coins = writeCoins(seed, w.callers)
	w.workDir, w.tr = workDir, tr
	return w.newRound()
}

func (w *writeLog) newRound() error {
	dir, err := os.MkdirTemp(w.workDir, "write-log-")
	if err != nil {
		return err
	}
	w.dep, err = newDeployment(store.Config{
		Engine:        store.EngineLog,
		DataDir:       dir,
		MemtableBytes: logMemtableBytes,
		CacheBytes:    logCacheBytes,
		Fsync:         logFsync,
	})
	if err != nil {
		_ = os.RemoveAll(dir)
		return err
	}
	if w.a, err = w.dep.addApp("log-app", 0, w.tr); err != nil {
		return err
	}
	w.tags = tagsOf(w.a.id, w.in)
	w.next.Store(0)
	w.written = w.written[:0]
	w.rounds++
	return nil
}

func (w *writeLog) run(deadline time.Time, p *phase) error {
	for time.Now().Before(deadline) {
		if w.dep == nil {
			if err := w.newRound(); err != nil {
				return err
			}
		}
		callers := make([]*caller, w.callers)
		for i := range callers {
			callers[i] = newCaller(w.a, w.tr, compressFn)
		}
		d := p.interval(w.dep, func() {
			closedLoop(p, callers, deadline, func(c *caller, idx, k int) bool {
				coin := w.coins[idx][(2*k)%len(w.coins[idx])]
				pick := w.coins[idx][(2*k+1)%len(w.coins[idx])]
				w.mu.Lock()
				nw := len(w.written)
				i := -1
				if coin >= writeFreshShare && nw > 0 {
					i = int(w.written[int(pick*float32(nw))%nw])
				}
				w.mu.Unlock()
				if i < 0 {
					if i = int(w.next.Add(1) - 1); i >= w.fresh {
						return false
					}
				}
				out := c.call(w.tags[i], w.in[i], w.want[i])
				if out == dedup.OutcomeComputed {
					w.mu.Lock()
					w.written = append(w.written, int32(i))
					w.mu.Unlock()
				}
				return true
			})
		})
		w.compactions += d.Engine.Compactions
		es := w.dep.st.EngineStats()
		p.storedBytes += es.WALBytes + es.SegmentBytes
		p.logValueBytes += es.ValueBytes
		w.mu.Lock()
		for _, i := range w.written {
			p.resultBytes += int64(w.resultLen[i])
		}
		w.mu.Unlock()
		if w.next.Load() >= int64(w.fresh) {
			w.dep.close()
			w.dep = nil
		}
	}
	return nil
}

func (w *writeLog) check(p *phase) (int64, []string) {
	n := p.outcomes()
	var why []string
	bad := n[dedup.OutcomeRecomputed]
	if bad > 0 {
		why = append(why, fmt.Sprintf("%d recomputed calls, want 0", bad))
	}
	if r := ratio(n[dedup.OutcomeComputed], int64(len(p.samples))); r < writeFreshShare-0.1 || r > writeFreshShare+0.1 {
		why = append(why, fmt.Sprintf("computed share %.3f, want %.2f +- 0.10", r, writeFreshShare))
		bad++
	}
	return bad, why
}

func (w *writeLog) config() []string {
	ws := int64(0)
	for _, n := range w.resultLen {
		ws += int64(n)
	}
	return []string{
		fmt.Sprintf("fresh inputs per round=%d x %d B workload.Text, compute=compress.Compress, fresh share=%.2f", w.fresh, smallInputBytes, writeFreshShare),
		fmt.Sprintf("callers=%d closed loop, one runtime, one mux connection; rounds run (warm-up included)=%d", w.callers, w.rounds),
		fmt.Sprintf("store engine=log fsync=%s memtable_bytes=%d cache_bytes=%d compact_interval=%v (default); compactions while running (warm-up included)=%d",
			logFsync, logMemtableBytes, logCacheBytes, logengine.DefaultCompactInterval, w.compactions),
		fmt.Sprintf("working set per round=%d result bytes = %.1f x (memtable+cache)", ws, float64(ws)/float64(logMemtableBytes+logCacheBytes)),
	}
}

func (w *writeLog) close() {
	if w.dep != nil {
		w.dep.close()
	}
}

// ---- chunk-neardup ----

// Near-duplicate corpus geometry: each document is a unique head, one
// of a few shared templates (half the bytes), and a unique tail.
const (
	docBytes       = 128 << 10
	templateBytes  = docBytes / 2
	docTemplates   = 16
	chunkThreshold = 32 << 10
)

// corpus is the chunk-neardup input set. A document's input names it;
// the compute function renders the document from the input.
type corpus struct {
	templates   [][]byte
	heads       [][]byte
	tails       [][]byte
	templateOf  []int
	inputs      [][]byte
	want        []uint64
	chunksCut   int64
	resultBytes int64
}

func newCorpus(seed int64, docs int) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	c := &corpus{}
	for i := 0; i < docTemplates; i++ {
		c.templates = append(c.templates, random(templateBytes))
	}
	ck, err := chunk.NewChunker(chunk.Config{})
	if err != nil {
		return nil, err
	}
	uniq := docBytes - templateBytes
	for i := 0; i < docs; i++ {
		c.heads = append(c.heads, random(uniq/2))
		c.tails = append(c.tails, random(uniq-uniq/2))
		c.templateOf = append(c.templateOf, i%docTemplates)
		in := random(16)
		binary.LittleEndian.PutUint32(in, uint32(i))
		c.inputs = append(c.inputs, in)
		doc, _ := c.render(in)
		c.want = append(c.want, digest(doc))
		c.chunksCut += int64(len(ck.Split(doc)))
		c.resultBytes += int64(len(doc))
	}
	return c, nil
}

// render is the producer's compute function.
func (c *corpus) render(in []byte) ([]byte, error) {
	i := int(binary.LittleEndian.Uint32(in))
	doc := make([]byte, 0, docBytes)
	doc = append(doc, c.heads[i]...)
	doc = append(doc, c.templates[c.templateOf[i]]...)
	return append(doc, c.tails[i]...), nil
}

func consumerCompute([]byte) ([]byte, error) {
	return nil, errors.New("consumer computed: the result should have been reused")
}

// chunkNearDup: a producer app stores each document chunk-wise and a
// consumer app with another measurement reuses it right away. One pass
// runs the whole corpus against a fresh store; passes repeat until the
// deadline, and the set-up between passes is not timed.
type chunkNearDup struct {
	docs int

	c                  *corpus
	tags               []mle.Tag
	dep                *deployment
	producer, consumer *app
	tr                 *tracer
	passes             int

	producerComputed, consumerReused, consumerCalls int64
}

func (w *chunkNearDup) setup(seed int64, _ string, tr *tracer) error {
	var err error
	if w.c, err = newCorpus(seed, w.docs); err != nil {
		return err
	}
	w.tr = tr
	return w.newPass()
}

func (w *chunkNearDup) newPass() error {
	var err error
	if w.dep, err = newDeployment(store.Config{}); err != nil {
		return err
	}
	if w.producer, err = w.dep.addApp("producer", chunkThreshold, w.tr); err != nil {
		return err
	}
	if w.consumer, err = w.dep.addApp("consumer", chunkThreshold, w.tr); err != nil {
		return err
	}
	w.tags = tagsOf(w.producer.id, w.c.inputs)
	return nil
}

func (w *chunkNearDup) run(deadline time.Time, p *phase) error {
	for time.Now().Before(deadline) {
		if w.dep == nil {
			if err := w.newPass(); err != nil {
				return err
			}
		}
		prod := newCaller(w.producer, w.tr, w.c.render)
		cons := newCaller(w.consumer, w.tr, consumerCompute)
		done := 0
		pd := p.interval(w.dep, func() {
			for i := range w.c.inputs {
				if !time.Now().Before(deadline) {
					break
				}
				if out := prod.call(w.tags[i], w.c.inputs[i], w.c.want[i]); out == dedup.OutcomeComputed {
					w.producerComputed++
				}
				if out := cons.call(w.tags[i], w.c.inputs[i], w.c.want[i]); out == dedup.OutcomeReused {
					w.consumerReused++
				}
				w.consumerCalls++
				done++
			}
		})
		p.add(prod)
		p.add(cons)
		if done < len(w.c.inputs) {
			// The next phase starts a whole pass against a fresh store.
			w.dep.close()
			w.dep = nil
			break
		}
		// A complete pass repeats exactly for a given seed; the first one
		// is reported as the workload's exact counts.
		if p.exact == nil {
			p.exact = &pd
			p.exactChunksCut = w.c.chunksCut
		}
		p.storedBytes += w.dep.st.Stats().BlobBytes
		p.resultBytes += w.c.resultBytes
		w.dep.close()
		w.dep = nil
		w.passes++
	}
	return nil
}

func (w *chunkNearDup) check(p *phase) (int64, []string) {
	var why []string
	bad := int64(0)
	if miss := w.consumerCalls - w.consumerReused; miss > 0 {
		why = append(why, fmt.Sprintf("%d consumer calls not reused, want 0", miss))
		bad += miss
	}
	if miss := w.consumerCalls - w.producerComputed; miss > 0 {
		why = append(why, fmt.Sprintf("%d producer calls not computed, want 0", miss))
		bad += miss
	}
	if p.exact == nil {
		why = append(why, "no complete pass over the corpus")
		bad++
	}
	return bad, why
}

func (w *chunkNearDup) config() []string {
	return []string{
		fmt.Sprintf("docs per pass=%d x %d B (unique head, one of %d shared %d B templates, unique tail), chunks cut per pass=%d",
			w.docs, docBytes, docTemplates, templateBytes, w.c.chunksCut),
		fmt.Sprintf("producer and consumer apps (different measurements), one connection each, 1 caller alternating; complete passes (warm-up included)=%d", w.passes),
		fmt.Sprintf("store engine=memory chunk_threshold=%d chunk_cache_bytes=16777216 (runtime default)", chunkThreshold),
	}
}

func (w *chunkNearDup) close() {
	if w.dep != nil {
		w.dep.close()
	}
}
