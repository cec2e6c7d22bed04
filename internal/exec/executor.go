package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"blendhouse/internal/bitset"
	"blendhouse/internal/cache"
	"blendhouse/internal/cluster"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

// Execution metrics (SHOW METRICS / the -debug-addr endpoint). The
// plan.* counters record which of the paper's plans A/B/C the
// optimizer actually ran; widen_rounds counts adaptive semantic-prune
// retries; segment_scans counts local-mode per-segment ANN/brute scans
// (VW-mode scans land in the bh.vw.search.* counters).
var (
	mVecQueries  = obs.Default().Counter("bh.query.vector.total")
	mPlanBrute   = obs.Default().Counter("bh.query.plan.brute_force")
	mPlanPre     = obs.Default().Counter("bh.query.plan.pre_filter")
	mPlanPost    = obs.Default().Counter("bh.query.plan.post_filter")
	mWidenRounds = obs.Default().Counter("bh.query.widen_rounds")
	mSegScans    = obs.Default().Counter("bh.exec.segment_scans")
)

// Executor runs physical plans against one table, either locally
// (VW == nil, indexes cached in-process) or distributed across a
// virtual warehouse. Per-segment work within a query runs on a
// bounded worker pool; see RunOptions.MaxParallelism.
type Executor struct {
	Table *lsm.Table
	VW    *cluster.VW
	// ColCache is the adaptive column cache (nil = direct reads).
	ColCache *cache.ColumnCache
	// SemanticFraction enables semantic segment pruning for vector
	// queries on clustered tables: only this fraction of segments
	// (nearest centroids first) is searched, widening adaptively when
	// results come back short. 0 disables.
	SemanticFraction float64
	// MinSegments floors the semantic cut.
	MinSegments int
	// MaxParallelism bounds the per-query segment fan-out (0 =
	// GOMAXPROCS). Individual runs can override it via RunOptions.
	MaxParallelism int
	// Stats, when non-nil, accumulates observed per-segment scan
	// latency and predicate selectivity — the live inputs of the
	// batched-vs-solo decision (plan.ChooseBatch). Fed by every scan,
	// so the averages stay fresh regardless of which path the
	// scheduler picks.
	Stats *obs.ScanStats

	localIdx sync.Map // segment name -> index.Index
}

// RunOptions tunes one execution.
type RunOptions struct {
	// Trace records a span tree and cache tallies for EXPLAIN ANALYZE
	// (nil = untraced; instrumentation is then a no-op).
	Trace *obs.Trace
	// MaxParallelism overrides the executor's segment fan-out for this
	// run (0 = executor default).
	MaxParallelism int
}

// ErrInvalidQuery tags execution-time validation failures that are the
// statement's fault (unknown column in a predicate, type mismatch), as
// opposed to engine faults. The core layer folds it into its ErrPlan
// class so network servers answer 4xx, not 5xx.
var ErrInvalidQuery = errors.New("exec: invalid query")

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    [][]any
	// Partial marks a result assembled from a strict subset of the data
	// holders that should have answered — set only by the scatter-gather
	// coordinator (internal/coord) when shard legs failed and the
	// session opted into partial results. Single-engine execution never
	// sets it.
	Partial bool
}

// hit is one ANN candidate qualified by segment.
type hit struct {
	meta   *storage.SegmentMeta
	offset int
	dist   float32
}

// GroupQuery is one member of a shared-scan group.
type GroupQuery struct {
	// Ctx is the member's own context (cancellation/deadline). nil means
	// the group context governs the member.
	Ctx  context.Context
	Plan *plan.Physical
	Opts RunOptions
}

// GroupResult is one member's outcome, positionally matching the input.
type GroupResult struct {
	Res *Result
	Err error
}

// Run executes a physical plan under ctx: a fired deadline or cancel
// stops remaining segment scans, widening rounds and in-flight remote
// reads promptly, returning the context's error.
func (e *Executor) Run(ctx context.Context, ph *plan.Physical) (*Result, error) {
	return e.RunWith(ctx, ph, RunOptions{})
}

// RunWith executes a physical plan with explicit per-run options, as
// a group of one. Results are deterministic: any parallelism degree
// returns exactly the rows (and ordering) of sequential execution.
func (e *Executor) RunWith(ctx context.Context, ph *plan.Physical, opts RunOptions) (*Result, error) {
	r := e.RunGroup(ctx, []GroupQuery{{Ctx: ctx, Plan: ph, Opts: opts}})[0]
	return r.Res, r.Err
}

// RunGroup executes a group of plans in one shared per-segment pass;
// a solo query is a group of one. The pass walks each segment once —
// one delete bitmap, one predicate bitset, one index load, one
// vector-column read — and services every member's query vector
// against that shared state with the member's own top-k heap, so each
// member gets exactly the result it would get alone. Members that
// cannot share a pass run as separate groups of one (see splits).
//
// Isolation: one member's context firing or its search failing never
// poisons the group. Shared-step failures (storage, compile) fan out to
// every member, preferring a member's own context error when both
// fired.
func (e *Executor) RunGroup(gctx context.Context, qs []GroupQuery) []GroupResult {
	if len(qs) == 0 {
		return nil
	}
	if gctx == nil {
		gctx = context.Background()
	}
	if e.splits(qs) {
		out := make([]GroupResult, 0, len(qs))
		for i := range qs {
			out = append(out, e.RunGroup(gctx, qs[i:i+1])...)
		}
		return out
	}
	return e.runPass(gctx, qs)
}

// splits reports whether the members cannot share one pass: VW scatter
// and semantic pruning (which prunes and widens per query vector) never
// share, and a shared pass needs one strategy, vector column, metric,
// range-kind and predicate set. Deep predicate equality is the
// caller's contract (the batching key).
func (e *Executor) splits(qs []GroupQuery) bool {
	ph0 := qs[0].Plan
	for _, q := range qs[1:] {
		lg, lg0 := q.Plan.Logical, ph0.Logical
		if e.VW != nil || e.SemanticFraction != 0 ||
			q.Plan.Strategy != ph0.Strategy ||
			lg0.Distance == nil || lg.Distance == nil ||
			lg.VectorColumn != lg0.VectorColumn ||
			lg.Metric != lg0.Metric ||
			(lg.Range == nil) != (lg0.Range == nil) ||
			len(lg.ScalarPreds) != len(lg0.ScalarPreds) {
			return true
		}
	}
	return false
}

// member is one query of a pass: its plan, context, per-member search
// parameters, hits and outcome.
type member struct {
	ctx    context.Context
	lg     *plan.Logical
	k      int // top-k (LIMIT, default 100)
	keep   int // hits kept through scan and merge: k, or a range query's LIMIT (0 = all)
	params index.SearchParams
	radius float32  // range radius in internal distance space
	mem    []hit    // memtable hits
	hits   []hit    // segment hits, then the merged result
	cols   []string // output columns
	res    *Result
	err    error // guarded by pass.mu
}

// pass is one shared per-segment execution of a group.
type pass struct {
	e *Executor
	// ctx and tr are the context and trace every member shares — a
	// group of one runs under its own — else the group context,
	// untraced.
	ctx      context.Context
	tr       *obs.Trace
	root     *obs.Span
	par      int
	lg       *plan.Logical // the shared shape: member 0's plan
	strategy plan.Strategy
	preds    []compiledPred
	view     lsm.QueryView

	mu sync.Mutex
	ms []member
}

func (e *Executor) runPass(gctx context.Context, qs []GroupQuery) []GroupResult {
	ctxOf := func(q GroupQuery) context.Context {
		if q.Ctx != nil {
			return q.Ctx
		}
		return gctx
	}
	p := &pass{
		e: e, ctx: ctxOf(qs[0]), tr: qs[0].Opts.Trace,
		lg: qs[0].Plan.Logical, strategy: qs[0].Plan.Strategy,
		ms: make([]member, len(qs)),
	}
	for i, q := range qs {
		mb := &p.ms[i]
		lg := q.Plan.Logical
		mb.ctx, mb.lg = ctxOf(q), lg
		if mb.ctx != p.ctx {
			p.ctx = gctx
		}
		if q.Opts.Trace != p.tr {
			p.tr = nil
		}
		p.par = max(p.par, e.parallelism(q.Opts.MaxParallelism))
		mb.err = mb.ctx.Err()
		mb.k = lg.K
		if mb.k <= 0 {
			mb.k = 100
		}
		mb.keep = mb.k
		if lg.Range != nil {
			mb.keep = lg.K
			mb.radius = internalRadius(lg)
		}
		mb.params = lg.Params.WithDefaults(mb.k)
	}
	p.root = p.tr.Span()
	// Traced queries carry a retry tally through the context: every
	// storage retry charged to this query surfaces as a root-span
	// attribute in EXPLAIN ANALYZE, alongside the circuit breaker's
	// state when the store has one.
	if p.tr != nil {
		tally := &storage.RetryTally{}
		// An IO tally rides along too: the segment read paths feed it,
		// and it materializes as a "storage" span so the trace attributes
		// tail latency to remote blob reads (summed across parallel
		// workers) without instrumenting every store implementation.
		io := &storage.IOTally{}
		p.ctx = storage.WithIOTally(storage.WithRetryTally(p.ctx, tally), io)
		defer func() {
			p.root.SetInt("store_retries", tally.Retries())
			if br, ok := e.Table.Store().(storage.BreakerReporter); ok {
				p.root.Set("store_breaker", br.BreakerState().String())
			}
			if reads, bytes, dur := io.Values(); reads > 0 {
				sp := p.root.ChildDur("storage", dur)
				sp.SetInt("reads", reads)
				sp.SetInt("bytes", bytes)
			}
		}()
	}
	preds, err := compilePredicates(e.Table.Schema(), p.lg.ScalarPreds)
	if err != nil {
		return p.results(err)
	}
	p.preds = preds
	// One consistent view of segments + memtable snapshots for the
	// whole pass: a concurrent memtable flush can't duplicate or drop
	// rows mid-execution, and every member sees the same data.
	p.view = e.Table.View()
	if p.lg.IsVectorQuery() {
		err = p.runVector()
	} else {
		p.runScalar()
	}
	if err == nil {
		err = p.assemble()
	}
	return p.results(err)
}

// results delivers every member's outcome: its own error first, then
// the shared failure (as the member's context error when that fired
// too), else its result.
func (p *pass) results(shared error) []GroupResult {
	out := make([]GroupResult, len(p.ms))
	for i := range p.ms {
		mb := &p.ms[i]
		switch {
		case mb.err != nil:
			out[i].Err = mb.err
		case shared != nil:
			out[i].Err = shared
			if cerr := mb.ctx.Err(); cerr != nil {
				out[i].Err = cerr
			}
		default:
			out[i].Res = mb.res
		}
	}
	return out
}

// check gates member i's share of the work: a fired member context
// records the member's own error and skips its remaining shares.
func (p *pass) check(i int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	mb := &p.ms[i]
	if mb.err == nil {
		mb.err = mb.ctx.Err()
	}
	return mb.err == nil
}

// fail records a failure of member i alone.
func (p *pass) fail(i int, err error) {
	p.mu.Lock()
	if p.ms[i].err == nil {
		p.ms[i].err = err
	}
	p.mu.Unlock()
}

// anyLive reports whether some member still wants results.
func (p *pass) anyLive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.ms {
		if p.ms[i].err == nil {
			return true
		}
	}
	return false
}

// runVector brute-forces the memtable snapshots, prunes segments, runs
// the plan's per-segment scan (widening adaptively after semantic
// pruning), then merges every member's hits.
func (p *pass) runVector() error {
	e := p.e
	live := int64(0)
	for i := range p.ms {
		mb := &p.ms[i]
		if mb.err == nil {
			// Defense in depth: the planner validates query dimension on
			// every SQL path, but plans can also be constructed directly.
			// A mismatch would otherwise surface as a slice-bounds panic
			// deep inside the distance kernels.
			mb.err = e.checkVectorDim(mb.lg)
		}
		if mb.err == nil {
			live++
		}
	}
	mVecQueries.Add(live)
	switch p.strategy {
	case plan.BruteForce:
		mPlanBrute.Add(live)
	case plan.PreFilter:
		mPlanPre.Add(live)
	case plan.PostFilter:
		mPlanPost.Add(live)
	}

	// Unflushed rows: brute-force the memtable snapshots once — they
	// are immune to semantic widening (never pruned) but their hits
	// count toward k before a widening round is declared necessary.
	if len(p.view.Mem) > 0 {
		memSp := p.root.Child("mem-scan")
		hits := 0
		for i := range p.ms {
			if !p.check(i) {
				continue
			}
			p.ms[i].mem = memHits(&p.ms[i], p.preds, p.view.Mem)
			hits += len(p.ms[i].mem)
		}
		memSp.SetInt("snapshots", int64(len(p.view.Mem)))
		memSp.SetInt("hits", int64(hits))
		memSp.End()
	}

	frac := e.SemanticFraction
	for round := 0; ; round++ {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		pruneSp := p.root.Child("prune")
		metas, semantic := e.pruneSegments(p.lg, p.preds, frac, p.view.Segments)
		pruneSp.SetInt("round", int64(round))
		pruneSp.SetInt("segments_total", int64(len(p.view.Segments)))
		pruneSp.SetInt("segments_kept", int64(len(metas)))
		pruneSp.SetBool("semantic", semantic)
		if semantic {
			pruneSp.SetFloat("fraction", frac)
		}
		pruneSp.End()

		scanSp := p.root.Child("scan")
		scanSp.Set("strategy", p.strategy.String())
		for i := range p.ms {
			p.ms[i].hits = p.ms[i].hits[:0]
		}
		err := p.scan(metas, scanSp)
		hits := 0
		for i := range p.ms {
			hits += len(p.ms[i].hits)
		}
		scanSp.SetInt("hits", int64(hits))
		scanSp.End()
		if err != nil {
			return err
		}
		// Adaptive semantic widening (paper §IV-B): if pruning cost a
		// member results, re-run over twice the segments; the round at
		// fraction 1 searches everything.
		if !semantic || !p.short() {
			break
		}
		mWidenRounds.Inc()
		frac = min(frac*2, 1)
	}

	// Per-member merge: segment hits plus memtable hits, sorted by the
	// total (dist, segment, offset) order and truncated.
	for i := range p.ms {
		mb := &p.ms[i]
		if mb.err != nil {
			continue
		}
		mb.hits = append(mb.hits, mb.mem...)
		sortHits(mb.hits)
		if mb.keep > 0 && len(mb.hits) > mb.keep {
			mb.hits = mb.hits[:mb.keep]
		}
	}
	return nil
}

// short reports whether a live top-k member found fewer than k rows.
func (p *pass) short() bool {
	for i := range p.ms {
		mb := &p.ms[i]
		if mb.err == nil && mb.lg.Range == nil && len(mb.hits)+len(mb.mem) < mb.k {
			return true
		}
	}
	return false
}

// scan runs the plan's per-segment closure over metas, appending each
// member's candidates to its hits.
func (p *pass) scan(metas []*storage.SegmentMeta, sp *obs.Span) error {
	switch {
	case p.lg.Range != nil:
		return p.scanSegments(metas, sp, p.rangeSegment)
	case p.strategy == plan.BruteForce:
		return p.scanSegments(metas, sp, p.bruteForceSegment)
	case p.strategy == plan.PreFilter && p.e.VW != nil:
		return p.vwPreFilter(metas, sp)
	case p.strategy == plan.PreFilter:
		return p.scanSegments(metas, sp, p.preFilterSegment)
	case p.strategy == plan.PostFilter:
		return p.scanSegments(metas, sp, p.postFilterSegment)
	}
	return fmt.Errorf("exec: unknown strategy %v", p.strategy)
}

// searchMembers runs search for every live member against one
// segment's shared state and emits the candidates as that member's
// hits. A failed search fails only its member.
func (p *pass) searchMembers(m *storage.SegmentMeta, ssp *obs.Span, emit func(int, hit), search func(*member) ([]index.Candidate, error)) {
	n := 0
	for i := range p.ms {
		if !p.check(i) {
			continue
		}
		cands, err := search(&p.ms[i])
		if err != nil {
			p.fail(i, err)
			continue
		}
		for _, c := range cands {
			emit(i, hit{meta: m, offset: int(c.ID), dist: c.Dist})
		}
		n += len(cands)
	}
	ssp.SetInt("candidates", int64(n))
}

func sortHits(hits []hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].dist != hits[j].dist {
			return hits[i].dist < hits[j].dist
		}
		if hits[i].meta.Name != hits[j].meta.Name {
			return hits[i].meta.Name < hits[j].meta.Name
		}
		return hits[i].offset < hits[j].offset
	})
}

// checkVectorDim rejects query vectors whose length differs from the
// vector column's declared dimension, as a statement fault
// (ErrInvalidQuery → 4xx), before any kernel sees the data.
func (e *Executor) checkVectorDim(lg *plan.Logical) error {
	if lg.Distance == nil {
		return nil
	}
	col := lg.VectorColumn
	if col == "" {
		col = lg.Distance.Column
	}
	_, def := e.Table.Schema().Col(col)
	if def == nil {
		return fmt.Errorf("%w: unknown vector column %q", ErrInvalidQuery, col)
	}
	if len(lg.Distance.Query) != def.Dim {
		return fmt.Errorf("%w: query vector dim %d != column dim %d", ErrInvalidQuery, len(lg.Distance.Query), def.Dim)
	}
	return nil
}

// pruneSegments applies partition, min/max and semantic pruning to
// the query's captured segment view.
func (e *Executor) pruneSegments(lg *plan.Logical, preds []compiledPred, semanticFrac float64, all []*storage.SegmentMeta) ([]*storage.SegmentMeta, bool) {
	opts := cluster.PruneOptions{
		IntRanges:   map[string][2]int64{},
		FloatRanges: map[string][2]float64{},
	}
	tOpts := e.Table.Options()
	for _, p := range preds {
		if p.intRange != nil {
			opts.IntRanges[p.col] = mergeInt(opts.IntRanges[p.col], *p.intRange)
		}
		if p.floatRange != nil {
			opts.FloatRanges[p.col] = *p.floatRange
		}
		// Partition pruning for single-column string partitions.
		if p.eqString != nil && len(tOpts.PartitionBy) == 1 && tOpts.PartitionBy[0] == p.col {
			opts.Partitions = map[string]bool{*p.eqString: true}
		}
	}
	if semanticFrac > 0 && semanticFrac < 1 && lg.Distance != nil {
		opts.QueryVector = lg.Distance.Query
		opts.SemanticFraction = semanticFrac
		opts.MinSegments = e.MinSegments
	}
	kept := cluster.PruneSegments(e.Table, all, opts)
	return kept, opts.SemanticFraction > 0 && len(kept) < len(all)
}

func mergeInt(existing [2]int64, nw [2]int64) [2]int64 {
	if existing == ([2]int64{}) {
		return nw
	}
	lo, hi := existing[0], existing[1]
	if nw[0] > lo {
		lo = nw[0]
	}
	if nw[1] < hi {
		hi = nw[1]
	}
	return [2]int64{lo, hi}
}

// predicateBitset evaluates the scalar conjuncts over a whole segment
// (the structured scan of plans A and B) and subtracts the delete
// bitmap. Returns nil when the segment has neither predicates nor
// deletes (= unfiltered).
func (e *Executor) predicateBitset(ctx context.Context, meta *storage.SegmentMeta, preds []compiledPred, tr *obs.Trace) (*bitset.Bitset, error) {
	del, err := e.Table.DeleteBitmapCtx(ctx, meta.Name)
	if err != nil {
		return nil, err
	}
	if len(preds) == 0 && del == nil {
		return nil, nil
	}
	bs := bitset.NewFull(meta.Rows)
	if len(preds) > 0 {
		rd, err := e.Table.Reader(meta.Name)
		if err != nil {
			return nil, err
		}
		cols := map[string]*storage.ColumnData{}
		for _, p := range preds {
			if _, ok := cols[p.col]; ok {
				continue
			}
			var c *storage.ColumnData
			if e.ColCache != nil {
				c, err = e.ColCache.ReadColumnTally(ctx, rd, p.col, tr.ColTally())
			} else {
				c, err = rd.ReadColumnCtx(ctx, p.col)
			}
			if err != nil {
				return nil, err
			}
			cols[p.col] = c
		}
		for row := 0; row < meta.Rows; row++ {
			for _, p := range preds {
				if !p.eval(cols[p.col], row) {
					bs.Clear(row)
					break
				}
			}
		}
	}
	if e.Stats != nil && len(preds) > 0 && meta.Rows > 0 {
		e.Stats.Selectivity.Observe(float64(bs.Count()) / float64(meta.Rows))
	}
	if del != nil {
		bs.AndNot(del)
	}
	return bs, nil
}

// segmentIndex loads a segment's index for single-node execution.
func (e *Executor) segmentIndex(ctx context.Context, meta *storage.SegmentMeta, tr *obs.Trace) (index.Index, error) {
	if v, ok := e.localIdx.Load(meta.Name); ok {
		tr.IdxTally().Hit()
		return v.(index.Index), nil
	}
	tr.IdxTally().Miss()
	ix, err := e.Table.OpenIndexCtx(ctx, meta.Name)
	if err != nil {
		return nil, err
	}
	actual, _ := e.localIdx.LoadOrStore(meta.Name, ix)
	return actual.(index.Index), nil
}

// InvalidateLocalIndexes drops the single-node index cache (used after
// compaction in long-running tests/benches). Keys are deleted in place
// rather than swapping the map, which would race with concurrent loads.
func (e *Executor) InvalidateLocalIndexes() {
	e.localIdx.Range(func(k, _ any) bool {
		e.localIdx.Delete(k)
		return true
	})
}

// segmentOwner picks the VW worker that serves a segment's stateful
// scans (iterators, range searches).
func (e *Executor) segmentOwner(m *storage.SegmentMeta) (*cluster.Worker, error) {
	owner := e.VW.Worker(e.VW.Workers()[0])
	for wid := range e.VW.ScheduleSegments(e.Table, []*storage.SegmentMeta{m}) {
		owner = e.VW.Worker(wid)
	}
	if owner == nil {
		return nil, fmt.Errorf("exec: no worker for segment %s", m.Name)
	}
	return owner, nil
}

// --- plan A: brute force -----------------------------------------------------

// bruteForceSegment reads the segment's qualifying rows' vectors once;
// each member then scores them with the blocked kernels into its own
// pooled top-k heap.
func (p *pass) bruteForceSegment(ctx context.Context, m *storage.SegmentMeta, ssp *obs.Span, emit func(int, hit)) error {
	ssp.SetInt("rows", int64(m.Rows))
	mSegScans.Inc()
	bs, err := p.e.predicateBitset(ctx, m, p.preds, p.tr)
	if err != nil {
		return err
	}
	s := getScratch()
	defer putScratch(s)
	if bs == nil {
		for i := 0; i < m.Rows; i++ {
			s.rows = append(s.rows, i)
		}
	} else {
		s.rows = bs.AppendOnes(s.rows)
	}
	rows := s.rows
	ssp.SetInt("filtered_rows", int64(len(rows)))
	if len(rows) == 0 {
		return nil
	}
	rd, err := p.e.Table.Reader(m.Name)
	if err != nil {
		return err
	}
	vcol, err := p.e.readRows(ctx, rd, p.lg.VectorColumn, rows, len(rows), p.tr)
	if err != nil {
		return err
	}
	p.searchMembers(m, ssp, emit, func(mb *member) ([]index.Candidate, error) {
		t := index.GetTopK(mb.k)
		defer index.PutTopK(t)
		scoreRows(t, mb.lg.Metric, mb.lg.Distance.Query, vcol.Vecs, vcol.Def.Dim, rows)
		s.cands = t.AppendResults(s.cands[:0])
		return s.cands, nil
	})
	return nil
}

// scoreRows pushes every row of data (rows compacted contiguously,
// segment offsets in rows) into t, a block of scanBlock rows per kernel
// call. L2 abandons rows early against the running top-k worst (kept
// candidates are bitwise identical to a per-row scan — see
// internal/vec).
func scoreRows(t *index.TopK, metric vec.Metric, q, data []float32, dim int, rows []int) {
	var dists [scanBlock]float32
	for base := 0; base < len(rows); base += scanBlock {
		br := min(len(rows)-base, scanBlock)
		block := data[base*dim : (base+br)*dim]
		if metric == vec.L2 {
			thr := float32(math.MaxFloat32)
			if w, ok := t.Worst(); ok {
				thr = w
			}
			vec.L2SquaredBatchThreshold(q, block, dim, dists[:br], thr)
		} else {
			vec.DistancesTo(metric, q, block, dim, dists[:br])
		}
		for j := 0; j < br; j++ {
			t.Push(index.Candidate{ID: int64(rows[base+j]), Dist: dists[j]})
		}
	}
}

// --- plan B: pre-filter --------------------------------------------------------

// preFilterSegment fuses the structured scan and the ANN scan: one
// predicate bitset and one index handle per segment, one filtered
// search per member.
func (p *pass) preFilterSegment(ctx context.Context, m *storage.SegmentMeta, ssp *obs.Span, emit func(int, hit)) error {
	bs, err := p.e.predicateBitset(ctx, m, p.preds, p.tr)
	if err != nil {
		return err
	}
	if bs != nil && !bs.Any() {
		return nil // nothing qualifies in this segment
	}
	ssp.SetInt("rows", int64(m.Rows))
	mSegScans.Inc()
	ix, err := p.e.segmentIndex(ctx, m, p.tr)
	if err != nil {
		return err
	}
	p.searchMembers(m, ssp, emit, func(mb *member) ([]index.Candidate, error) {
		return ix.SearchWithFilter(mb.lg.Distance.Query, mb.k, bs, mb.params)
	})
	return nil
}

// vwPreFilter is plan B in distributed mode: the structured scan
// (per-segment predicate bitsets) fans out on the local pool, then the
// VW scatters each member's ANN scans across workers.
func (p *pass) vwPreFilter(metas []*storage.SegmentMeta, sp *obs.Span) error {
	bitsets, err := gatherSegments(p.ctx, metas, p.par, func(ctx context.Context, _ int, m *storage.SegmentMeta) (*bitset.Bitset, error) {
		return p.e.predicateBitset(ctx, m, p.preds, p.tr)
	})
	if err != nil {
		return err
	}
	filters := map[string]*bitset.Bitset{}
	byName := map[string]*storage.SegmentMeta{}
	searchable := metas[:0:0]
	for i, m := range metas {
		if bs := bitsets[i]; bs == nil || bs.Any() {
			filters[m.Name] = bs
			byName[m.Name] = m
			searchable = append(searchable, m)
		}
	}
	if len(searchable) == 0 {
		return nil
	}
	for i := range p.ms {
		if !p.check(i) {
			continue
		}
		mb := &p.ms[i]
		cands, err := p.e.VW.Search(p.ctx, p.e.Table, searchable, mb.lg.Distance.Query, mb.k, cluster.SearchOptions{
			Params: mb.params, Filters: filters,
			Span: sp, IdxTally: p.tr.IdxTally(),
		})
		if err != nil {
			p.fail(i, err)
			continue
		}
		for _, c := range cands {
			mb.hits = append(mb.hits, hit{meta: byName[c.Segment], offset: int(c.Offset), dist: c.Dist})
		}
	}
	return nil
}

// --- plan C: post-filter --------------------------------------------------------

// postFilterSegment loads the segment's delete bitmap, reader and index
// (or VW owner) once, then runs each member's incremental search.
func (p *pass) postFilterSegment(ctx context.Context, m *storage.SegmentMeta, ssp *obs.Span, emit func(int, hit)) error {
	ssp.SetInt("rows", int64(m.Rows))
	mSegScans.Inc()
	del, err := p.e.Table.DeleteBitmapCtx(ctx, m.Name)
	if err != nil {
		return err
	}
	rd, err := p.e.Table.Reader(m.Name)
	if err != nil {
		return err
	}
	var open func(mb *member) (index.Iterator, error)
	if p.e.VW != nil {
		// Iterators are stateful: run on the segment's assigned worker.
		owner, err := p.e.segmentOwner(m)
		if err != nil {
			return err
		}
		ssp.Set("worker", owner.ID)
		open = func(mb *member) (index.Iterator, error) {
			return owner.OpenIterator(ctx, p.e.Table, m, mb.lg.Distance.Query, mb.k, mb.params)
		}
	} else {
		ix, err := p.e.segmentIndex(ctx, m, p.tr)
		if err != nil {
			return err
		}
		open = func(mb *member) (index.Iterator, error) {
			return index.OpenIterator(ix, mb.lg.Distance.Query, mb.k, mb.params)
		}
	}
	p.searchMembers(m, ssp, emit, func(mb *member) ([]index.Candidate, error) {
		it, err := open(mb)
		if err != nil {
			return nil, err
		}
		defer it.Close()
		return p.postFilter(ctx, it, del, rd, mb, ssp)
	})
	return nil
}

// postFilter pulls candidate batches from a member's index iterator,
// filters each batch against the scalar predicates (reading only the
// predicate columns of the candidate rows), and iterates until k
// qualifying rows or exhaustion — Figure 2's SearchIterator +
// partial-top-k-before-filter pipeline.
func (p *pass) postFilter(ctx context.Context, it index.Iterator, del *bitset.Bitset, rd *storage.SegmentReader, mb *member, ssp *obs.Span) ([]index.Candidate, error) {
	var out []index.Candidate
	batch := max(mb.k, 16)
	batches := 0
	for len(out) < mb.k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cands, err := it.Next(batch)
		if err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			break
		}
		batches++
		// Evaluate predicates only on the candidate rows.
		rows := make([]int, 0, len(cands))
		kept := make([]index.Candidate, 0, len(cands))
		for _, c := range cands {
			if del != nil && del.Test(int(c.ID)) {
				continue
			}
			rows = append(rows, int(c.ID))
			kept = append(kept, c)
		}
		// Each predicate reads only the rows that passed the previous ones.
		for _, pr := range p.preds {
			if len(rows) == 0 {
				break
			}
			col, err := p.e.readRows(ctx, rd, pr.col, rows, len(rows), p.tr)
			if err != nil {
				return nil, err
			}
			n := 0
			for i := range rows {
				if pr.eval(col, i) {
					rows[n], kept[n] = rows[i], kept[i]
					n++
				}
			}
			rows, kept = rows[:n], kept[:n]
		}
		out = append(out, kept[:min(len(kept), mb.k-len(out))]...)
	}
	ssp.SetInt("batches", int64(batches))
	return out, nil
}

// --- range search ---------------------------------------------------------------

// rangeSegment computes one predicate bitset and index handle (or VW
// owner) per segment, then one range search per member.
func (p *pass) rangeSegment(ctx context.Context, m *storage.SegmentMeta, ssp *obs.Span, emit func(int, hit)) error {
	bs, err := p.e.predicateBitset(ctx, m, p.preds, p.tr)
	if err != nil {
		return err
	}
	if bs != nil && !bs.Any() {
		return nil
	}
	ssp.SetInt("rows", int64(m.Rows))
	mSegScans.Inc()
	var search func(mb *member) ([]index.Candidate, error)
	if p.e.VW != nil {
		owner, err := p.e.segmentOwner(m)
		if err != nil {
			return err
		}
		ssp.Set("worker", owner.ID)
		search = func(mb *member) ([]index.Candidate, error) {
			return owner.RangeSegment(ctx, p.e.Table, m, mb.lg.Distance.Query, mb.radius, mb.params, bs)
		}
	} else {
		ix, err := p.e.segmentIndex(ctx, m, p.tr)
		if err != nil {
			return err
		}
		search = func(mb *member) ([]index.Candidate, error) {
			return ix.SearchWithRange(mb.lg.Distance.Query, mb.radius, bs, mb.params)
		}
	}
	p.searchMembers(m, ssp, emit, search)
	return nil
}

// internalRadius translates a user-facing range radius into index
// space: internal distances negate IP and square L2.
func internalRadius(lg *plan.Logical) float32 {
	radius := lg.Range.Radius
	switch lg.Metric {
	case vec.L2:
		radius = radius * radius
	case vec.InnerProduct:
		radius = -radius
	}
	return radius
}

// --- scalar-only queries ----------------------------------------------------------

// runScalar finds each scalar member's rows: segments and memtable
// snapshots filtered by the predicates, sorted by the ORDER BY column
// and limited.
func (p *pass) runScalar() {
	for i := range p.ms {
		if !p.check(i) {
			continue
		}
		hits, err := p.scalarHits(p.ms[i].lg)
		if err != nil {
			p.fail(i, err)
		}
		p.ms[i].hits = hits
	}
}

func (p *pass) scalarHits(lg *plan.Logical) ([]hit, error) {
	e := p.e
	metas, _ := e.pruneSegments(lg, p.preds, 0, p.view.Segments)
	sp := p.root.Child("scalar-scan")
	defer sp.End()
	sp.SetInt("segments", int64(len(metas)))
	sp.SetInt("mem_snapshots", int64(len(p.view.Mem)))
	type scalarRow struct {
		meta   *storage.SegmentMeta
		offset int
		sortV  float64
		sortS  string
	}
	sortKey := func(r *scalarRow, col *storage.ColumnData, i int) {
		switch col.Def.Type {
		case storage.Int64Type, storage.DateTimeType:
			r.sortV = float64(col.Ints[i])
		case storage.Float64Type:
			r.sortV = col.Floats[i]
		case storage.StringType:
			r.sortS = col.Strs[i]
		}
	}
	// Segments scan concurrently; the positional gather keeps segment
	// order, so the concatenation (and therefore the stable sort and
	// LIMIT below) matches sequential execution exactly.
	perSeg, err := gatherSegments(p.ctx, metas, p.par, func(ctx context.Context, _ int, m *storage.SegmentMeta) ([]scalarRow, error) {
		bs, err := e.predicateBitset(ctx, m, p.preds, p.tr)
		if err != nil {
			return nil, err
		}
		var offsets []int
		if bs == nil {
			offsets = make([]int, m.Rows)
			for i := range offsets {
				offsets[i] = i
			}
		} else {
			offsets = bs.Ones()
		}
		if len(offsets) == 0 {
			return nil, nil
		}
		var sortCol *storage.ColumnData
		if lg.OrderColumn != "" {
			rd, err := e.Table.Reader(m.Name)
			if err != nil {
				return nil, err
			}
			sortCol, err = e.readRows(ctx, rd, lg.OrderColumn, offsets, len(offsets), p.tr)
			if err != nil {
				return nil, err
			}
		}
		rows := make([]scalarRow, 0, len(offsets))
		for i, off := range offsets {
			r := scalarRow{meta: m, offset: off}
			if sortCol != nil {
				sortKey(&r, sortCol, i)
			}
			rows = append(rows, r)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []scalarRow
	for _, rs := range perSeg {
		rows = append(rows, rs...)
	}
	// Unflushed rows from the memtable snapshots, appended after every
	// segment's rows (their synthetic names sort last) so unordered
	// LIMIT results stay deterministic.
	for _, snap := range p.view.Mem {
		mMemScans.Inc()
		var sortCol *storage.ColumnData
		if lg.OrderColumn != "" {
			sortCol = snap.Col(lg.OrderColumn)
		}
		for row := 0; row < snap.Rows(); row++ {
			if !snap.Alive(row) || !memPass(p.preds, snap, row) {
				continue
			}
			r := scalarRow{meta: snap.Meta, offset: row}
			if sortCol != nil {
				sortKey(&r, sortCol, row)
			}
			rows = append(rows, r)
		}
	}
	if lg.OrderColumn != "" {
		sort.SliceStable(rows, func(i, j int) bool {
			less := rows[i].sortV < rows[j].sortV || (rows[i].sortV == rows[j].sortV && rows[i].sortS < rows[j].sortS)
			if lg.Desc {
				return !less && !(rows[i].sortV == rows[j].sortV && rows[i].sortS == rows[j].sortS)
			}
			return less
		})
	}
	if lg.K > 0 && len(rows) > lg.K {
		rows = rows[:lg.K]
	}
	hits := make([]hit, len(rows))
	for i, r := range rows {
		hits[i] = hit{meta: r.meta, offset: r.offset, dist: float32(math.NaN())}
	}
	sp.SetInt("hits", int64(len(hits)))
	return hits, nil
}

// --- output assembly ---------------------------------------------------------------

// readRows fetches rows of one column, through the adaptive column
// cache when configured.
func (e *Executor) readRows(ctx context.Context, rd *storage.SegmentReader, col string, rows []int, queryRows int, tr *obs.Trace) (*storage.ColumnData, error) {
	if e.ColCache != nil {
		return e.ColCache.ReadRowsTally(ctx, rd, col, rows, queryRows, tr.ColTally())
	}
	return rd.ReadRowsCtx(ctx, col, rows)
}

// outputColumns lists a plan's result columns (SELECT * expands to the
// schema plus the distance alias).
func (e *Executor) outputColumns(lg *plan.Logical) []string {
	if !lg.Star {
		return lg.Projection
	}
	var cols []string
	for _, c := range e.Table.Schema().Columns {
		cols = append(cols, c.Name)
	}
	if lg.DistAlias != "" {
		cols = append(cols, lg.DistAlias)
	}
	return cols
}

// assemble materializes every live member's projection. Row offsets
// are unioned per segment and each needed column is read once per
// segment (segments fetch concurrently on the worker pool; memtable
// hits read straight from their frozen snapshots); members then build
// their rows in hit order. A failed column read fails only the
// members whose rows need it.
func (p *pass) assemble() error {
	asp := p.root.Child("assemble")
	defer asp.End()
	type segRows struct {
		meta *storage.SegmentMeta
		rows []int
		cols []*storage.ColumnData // aligned with fetch
		err  error
	}
	type rowKey struct{ seg, off int }
	var (
		fetch  []string // union of the members' fetched columns
		segs   []segRows
		segIdx = map[string]int{}
		rowPos = map[rowKey]int{} // -> position in segs[seg].rows
	)
	total, queryRows := 0, 0
	for i := range p.ms {
		mb := &p.ms[i]
		if mb.err != nil {
			continue
		}
		mb.cols = p.e.outputColumns(mb.lg)
		for _, c := range mb.cols {
			if (c != mb.lg.DistAlias || c == "") && !slices.Contains(fetch, c) {
				fetch = append(fetch, c)
			}
		}
		total += len(mb.hits)
		// Cache admission sees the rows one query fetches, as solo.
		queryRows = max(queryRows, len(mb.hits))
		for _, h := range mb.hits {
			si, ok := segIdx[h.meta.Name]
			if !ok {
				si = len(segs)
				segIdx[h.meta.Name] = si
				segs = append(segs, segRows{meta: h.meta})
			}
			key := rowKey{si, h.offset}
			if _, ok := rowPos[key]; !ok {
				rowPos[key] = len(segs[si].rows)
				segs[si].rows = append(segs[si].rows, h.offset)
			}
		}
	}
	asp.SetInt("rows", int64(total))

	memSnaps := memSnapshotIndex(p.view.Mem)
	err := poolRun(p.ctx, len(segs), p.par, func(ctx context.Context, si int) error {
		s := &segs[si]
		s.cols = make([]*storage.ColumnData, len(fetch))
		if snap, ok := memSnaps[s.meta.Name]; ok {
			for ci, c := range fetch {
				if s.cols[ci] = memFetchColumn(snap, c, s.rows); s.cols[ci] == nil && s.err == nil {
					s.err = fmt.Errorf("%w: unknown column %q", ErrInvalidQuery, c)
				}
			}
			return nil
		}
		rd, err := p.e.Table.Reader(s.meta.Name)
		if err != nil {
			s.err = err
			return nil
		}
		for ci, c := range fetch {
			if s.cols[ci], err = p.e.readRows(ctx, rd, c, s.rows, queryRows, p.tr); err != nil && s.err == nil {
				s.err = err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var at []int // member column -> position in fetch (-1 = distance)
	for i := range p.ms {
		mb := &p.ms[i]
		if mb.err != nil {
			continue
		}
		cols := mb.cols
		at = at[:0]
		for _, c := range cols {
			if c == mb.lg.DistAlias && c != "" {
				at = append(at, -1)
			} else {
				at = append(at, slices.Index(fetch, c))
			}
		}
		res := &Result{Columns: cols}
		if len(mb.hits) > 0 {
			res.Rows = make([][]any, len(mb.hits))
		}
		vals := make([]any, len(mb.hits)*len(cols))
	build:
		for hi, h := range mb.hits {
			si := segIdx[h.meta.Name]
			s := &segs[si]
			row := vals[hi*len(cols) : (hi+1)*len(cols) : (hi+1)*len(cols)]
			for ci, fi := range at {
				switch {
				case fi < 0:
					row[ci] = outputDistance(mb.lg.Metric, h.dist)
				case s.cols[fi] == nil:
					mb.err = s.err
					break build
				default:
					row[ci] = columnValue(s.cols[fi], rowPos[rowKey{si, h.offset}])
				}
			}
			res.Rows[hi] = row
		}
		mb.res = res
	}
	return nil
}

// outputDistance converts internal index distances to user-facing
// values: L2 is reported as true Euclidean distance, inner product is
// un-negated, cosine passes through.
func outputDistance(m vec.Metric, d float32) float64 {
	switch m {
	case vec.L2:
		return math.Sqrt(float64(d))
	case vec.InnerProduct:
		return float64(-d)
	default:
		return float64(d)
	}
}

func columnValue(cd *storage.ColumnData, row int) any {
	switch cd.Def.Type {
	case storage.Int64Type, storage.DateTimeType:
		return cd.Ints[row]
	case storage.Float64Type:
		return cd.Floats[row]
	case storage.StringType:
		return cd.Strs[row]
	case storage.VectorType:
		return append([]float32(nil), cd.Vector(row)...)
	}
	return nil
}
