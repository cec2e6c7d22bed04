package main

import (
	"fmt"
	"time"

	"blendhouse/internal/autoindex"
	"blendhouse/internal/core"
	"blendhouse/internal/exec"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

// layer records a per-layer metric (traced runs only).
func (r *run) layer(name string, v float64, unit string) {
	if r.traced {
		r.set(name, v, unit)
	}
}

// liveTracer is the tracer while a traced load phase runs, else nil,
// so untraced phases pay nothing for tracing.
func (r *run) liveTracer() *tracer {
	if r.tracing.Load() {
		return r.tr
	}
	return nil
}

// colStats sums column-cache counters over engines that no longer
// exist (cold-start closes one per cycle).
type colStats struct{ hits, misses, bypasses int64 }

func (c *colStats) add(e *core.Engine) {
	if ex := e.Executor(tableName); ex != nil && ex.ColCache != nil {
		h, m, b := ex.ColCache.Stats()
		c.hits, c.misses, c.bypasses = c.hits+h, c.misses+m, c.bypasses+b
	}
}

// counters is a snapshot of the counters the per-layer metrics are
// deltas of: the benchmark's own remote stores, each engine's column
// cache, and the process-wide registry (admission, batch, storage
// retries, LSM and WAL).
type counters struct {
	store                  storage.Stats
	col                    colStats
	queueWait              time.Duration
	queueN                 int64
	batchQueries           int64
	batchGrouped           int64
	formWait               time.Duration
	formN                  int64
	retries, flushes       int64
	stalls                 int64
	walRecords, walCommits int64
}

func snapshot(s *system) counters {
	reg := obs.Default()
	c := counters{store: s.stats()}
	for _, n := range s.nodes {
		c.col.add(n.engine)
	}
	qw := reg.Histogram("bh.server.admission.queue_wait")
	fw := reg.Histogram("bh.batch.formation_wait")
	c.queueWait, c.queueN = qw.Sum(), qw.Count()
	c.formWait, c.formN = fw.Sum(), fw.Count()
	c.batchQueries = reg.Counter("bh.batch.queries").Value()
	c.batchGrouped = reg.Counter("bh.batch.grouped_queries").Value()
	c.retries = reg.Counter("bh.storage.retries").Value()
	c.flushes = reg.Counter("bh.lsm.flush.runs").Value()
	c.stalls = reg.Counter("bh.lsm.memtable.stalls").Value()
	c.walRecords = reg.Counter("bh.wal.append.records").Value()
	c.walCommits = reg.Counter("bh.wal.commit.total").Value()
	return c
}

func (a counters) sub(b counters) counters {
	return counters{
		store: storage.Stats{
			Gets: a.store.Gets - b.store.Gets, Puts: a.store.Puts - b.store.Puts,
			BytesRead: a.store.BytesRead - b.store.BytesRead, BytesWritten: a.store.BytesWritten - b.store.BytesWritten,
		},
		col:          colStats{a.col.hits - b.col.hits, a.col.misses - b.col.misses, a.col.bypasses - b.col.bypasses},
		queueWait:    a.queueWait - b.queueWait,
		queueN:       a.queueN - b.queueN,
		batchQueries: a.batchQueries - b.batchQueries,
		batchGrouped: a.batchGrouped - b.batchGrouped,
		formWait:     a.formWait - b.formWait,
		formN:        a.formN - b.formN,
		retries:      a.retries - b.retries,
		flushes:      a.flushes - b.flushes,
		stalls:       a.stalls - b.stalls,
		walRecords:   a.walRecords - b.walRecords,
		walCommits:   a.walCommits - b.walCommits,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return ratio(sum, float64(len(vs)))
}

func meanUS(sum time.Duration, n int64) float64 {
	return ratio(float64(sum)/1e3, float64(n))
}

// tracedLoad runs the workload's load twice, the same length each
// time: untraced, then with spans around every client call. The
// counter deltas of the traced half feed the load-side layer metrics;
// the latency difference is the tracing overhead.
func (r *run) tracedLoad(s *system, cs *colStats, load func(share float64) loadResult) {
	plain := load(0.3)
	r.count(plain)
	before := snapshot(s)
	if cs != nil {
		before.col = *cs
	}
	r.tracing.Store(true)
	traced := load(0.3)
	r.tracing.Store(false)
	r.count(traced)
	d := snapshot(s)
	if cs != nil {
		d.col = *cs
	}
	d = d.sub(before)
	p, t := summarize(plain.lats), summarize(traced.lats)
	r.layer("trace.overhead_pct", 100*ratio(t.P50-p.P50, p.P50), "%")
	r.note("tracing overhead: untraced p50 %.3f ms (%d), traced p50 %.3f ms (%d)", p.P50, p.N, t.P50, t.N)
	r.loadLayers(d, traced.attempted)
}

// loadLayers records the metrics read from counter deltas over a load
// phase of n statements.
func (r *run) loadLayers(d counters, n int64) {
	r.layer("server.admission_wait_us", meanUS(d.queueWait, d.queueN), "us")
	r.layer("batch.grouped_share", ratio(float64(d.batchGrouped), float64(d.batchQueries)), "ratio")
	r.layer("batch.formation_wait_us", meanUS(d.formWait, d.formN), "us")
	r.layer("cache.column_hit_rate", ratio(float64(d.col.hits), float64(d.col.hits+d.col.misses)), "ratio")
	r.layer("cache.column_bypasses", float64(d.col.bypasses), "count")
	r.layer("storage.gets_per_query", ratio(float64(d.store.Gets), float64(n)), "count")
	r.layer("storage.bytes_read_per_query", ratio(float64(d.store.BytesRead), float64(n)), "bytes")
	r.execSpans()
}

// writeLayers records write-path totals for the run so far: set-up on
// every workload, plus the writer on ingest-mixed.
func (r *run) writeLayers(s *system, userRows int) {
	c := snapshot(s)
	segs := 0
	for _, n := range s.nodes {
		if t := n.engine.Table(tableName); t != nil {
			segs += t.SegmentCount()
		}
	}
	r.layer("storage.write_amp", ratio(float64(c.store.BytesWritten), float64(userRows*rowBytes)), "ratio")
	r.layer("storage.retries", float64(c.retries), "count")
	r.layer("lsm.flushes", float64(c.flushes), "count")
	r.layer("lsm.segments", float64(segs), "count")
	r.layer("lsm.memtable_stalls", float64(c.stalls), "count")
	r.layer("wal.records_per_commit", ratio(float64(c.walRecords), float64(c.walCommits)), "ratio")
}

// execSpans reads the span trees the engine itself recorded for the
// newest statements (trace-sample 1 traces every statement) and
// reports the median per-statement time of each executor stage.
func (r *run) execSpans() {
	stages := []struct{ span, metric string }{
		{"mem-scan", "exec.mem_scan_us"}, {"prune", "exec.prune_us"},
		{"scan", "exec.scan_us"}, {"assemble", "exec.assemble_us"},
	}
	per := map[string][]time.Duration{}
	traces := 0
	for _, rec := range obs.Traces().Snapshot() {
		if rec.Statement != "select" || rec.Root == nil {
			continue
		}
		traces++
		sums := map[string]time.Duration{}
		walk(rec.Root, func(sp *obs.Span) { sums[sp.Name()] += sp.Duration() })
		for _, st := range stages {
			if d, ok := sums[st.span]; ok {
				per[st.span] = append(per[st.span], d)
			}
		}
	}
	for _, st := range stages {
		r.layer(st.metric, medianDur(per[st.span], time.Microsecond), "us")
	}
	r.note("exec stages from %d engine-recorded select traces (mem-scan present in %d)", traces, len(per["mem-scan"]))
}

func walk(sp *obs.Span, fn func(*obs.Span)) {
	fn(sp)
	for _, c := range sp.Children() {
		walk(c, fn)
	}
}

// probeLayers times the calls into parse, plan, exec, index and vec
// serially on the workload's own statements and rows, each inside a
// span, on the first node's engine, and then the coordinator's
// overhead on a cluster of its own.
func (r *run) probeLayers(s *system, in *inputs) error {
	tr := r.tr
	e := s.nodes[0].engine
	t := e.Table(tableName)
	ex := e.Executor(tableName)
	if t == nil || ex == nil {
		return fmt.Errorf("table %s missing", tableName)
	}
	var parse, planT, inproc, rtt []time.Duration
	runBy := map[string][]time.Duration{}
	strategies := map[plan.Strategy]int{}
	var regrets []float64
	forcedBad := 0
	for i := range in.stmts {
		st := &in.stmts[i]
		req := tr.newReq()
		root := tr.start("statement", nil, req)
		var parsed sql.Statement
		var err error
		parse = append(parse, tr.timed("sql.Parse", root, req, func(*openSpan) { parsed, err = sql.Parse(st.sql) }))
		if err != nil {
			return err
		}
		var ph *plan.Physical
		planT = append(planT, tr.timed("plan.Plan", root, req, func(*openSpan) { ph, err = e.Planner().Plan(parsed.(*sql.Select), t) }))
		if err != nil {
			return err
		}
		strategies[ph.Strategy]++
		d := tr.timed("exec.RunWith", root, req, func(*openSpan) { _, err = ex.RunWith(r.ctx, ph, exec.RunOptions{}) })
		if err != nil {
			return err
		}
		runBy[shape(ph)] = append(runBy[shape(ph)], d)
		if ph.Logical.Range == nil {
			// Regret: the chosen plan's time over the fastest of the
			// three, each forced on a copy of the physical plan.
			var times [3]time.Duration
			for _, sg := range []plan.Strategy{plan.BruteForce, plan.PreFilter, plan.PostFilter} {
				cp := *ph
				cp.Strategy = sg
				var res *exec.Result
				times[sg] = tr.timed("exec.RunWith.forced", root, req, func(*openSpan) { res, err = ex.RunWith(r.ctx, &cp, exec.RunOptions{}) })
				if err != nil {
					return err
				}
				if sg == plan.BruteForce {
					if ids, err := idsOf(res.Rows); err != nil || !sameIDs(ids, st.truth) {
						forcedBad++
					}
				}
			}
			best := min(times[0], times[1], times[2])
			regrets = append(regrets, ratio(float64(times[ph.Strategy]), float64(best)))
		}
		// Server overhead: the same statement through the client
		// against the in-process call it ends in.
		inproc = append(inproc, tr.timed("core.Engine.Query", root, req, func(*openSpan) { _, err = e.Query(r.ctx, st.sql, core.QueryOptions{}) }))
		if err != nil {
			return err
		}
		front := tr.timed("client.Query", root, req, func(*openSpan) { _, err = s.cli.Query(r.ctx, st.sql) })
		if err != nil {
			return err
		}
		rtt = append(rtt, front)
		root.end()
	}
	r.gate(forcedBad == 0, "forced brute-force plans equal ground truth on %d statements", len(regrets))
	n := float64(len(in.stmts))
	r.layer("sql.parse_us", medianDur(parse, time.Microsecond), "us")
	r.layer("plan.plan_us", medianDur(planT, time.Microsecond), "us")
	for _, sg := range []plan.Strategy{plan.BruteForce, plan.PreFilter, plan.PostFilter} {
		r.layer("plan.strategy_share."+sg.String(), float64(strategies[sg])/n, "ratio")
	}
	r.layer("plan.regret", mean(regrets), "ratio")
	for _, sh := range []string{"brute-force", "pre-filter", "post-filter", "range"} {
		r.layer("exec.run_us."+sh, medianDur(runBy[sh], time.Microsecond), "us")
	}
	r.layer("server.overhead_us", medianDur(rtt, time.Microsecond)-medianDur(inproc, time.Microsecond), "us")
	if err := r.indexLayers(t, in); err != nil {
		return err
	}
	if err := r.insertLayers(e, in); err != nil {
		return err
	}
	return r.coordLayers(in)
}

// coordLayers brings up three shard engines behind the coordinator
// and its front server, loads the base rows through it, warms it with
// one pass of the mix, and then times each statement through the front
// door against the slowest direct round trip to a shard: what the
// scatter-gather legs and the merge add.
func (r *run) coordLayers(in *inputs) error {
	s, _, err := setUp(r.ctx, 3, in.insertSQL(tableName, 0, baseRows, loadChunk))
	if err != nil {
		return err
	}
	defer s.close()
	var shards []*conn
	for _, n := range s.nodes {
		c, err := dial(n.srv.Addr(), 1)
		if err != nil {
			return err
		}
		defer c.close()
		shards = append(shards, c)
	}
	warm := serialLoop(len(in.stmts), func(i int) error {
		_, err := s.cli.Query(r.ctx, in.stmts[i].sql)
		return err
	})
	r.count(warm)
	if warm.failed > 0 {
		return fmt.Errorf("%d statements failed through the coordinator", warm.failed)
	}
	tr := r.tr
	var merge []time.Duration
	for i := range in.stmts {
		st := &in.stmts[i]
		req := tr.newReq()
		root := tr.start("statement(cluster)", nil, req)
		front := tr.timed("client.Query(coordinator)", root, req, func(*openSpan) { _, err = s.cli.Query(r.ctx, st.sql) })
		if err != nil {
			return err
		}
		var slowest time.Duration
		for si, c := range shards {
			d := tr.timed(fmt.Sprintf("client.Query(shard%d)", si), root, req, func(*openSpan) { _, err = c.Query(r.ctx, st.sql) })
			if err != nil {
				return err
			}
			slowest = max(slowest, d)
		}
		merge = append(merge, front-slowest)
		root.end()
	}
	r.layer("coord.merge_overhead_us", medianDur(merge, time.Microsecond), "us")
	return nil
}

// indexLayers times per-segment index search, the distance kernel and
// one segment-sized HNSW build on the workload's rows.
func (r *run) indexLayers(t *lsm.Table, in *inputs) error {
	tr := r.tr
	qs := in.queries
	params := index.SearchParams{}.WithDefaults(topK)
	var search []time.Duration
	for _, m := range t.Segments() {
		ix, err := t.OpenIndex(m.Name)
		if err != nil {
			return fmt.Errorf("open index %s: %w", m.Name, err)
		}
		for qi := 0; qi < perClass; qi++ {
			q := qs.Row(qi)
			search = append(search, tr.timed("index.SearchWithFilter", nil, tr.newReq(), func(*openSpan) { _, err = ix.SearchWithFilter(q, topK, nil, params) }))
			if err != nil {
				return err
			}
		}
	}
	r.layer("index.search_us", medianDur(search, time.Microsecond), "us")

	data := in.vecs.Data[:baseRows*dim]
	out := make([]float32, baseRows)
	var kern time.Duration
	for qi := 0; qi < perClass; qi++ {
		q := qs.Row(qi)
		kern += tr.timed("vec.L2SquaredBatch", nil, tr.newReq(), func(*openSpan) { vec.L2SquaredBatch(q, data, dim, out) })
	}
	r.layer("vec.l2_ns_per_row", float64(kern)/float64(perClass*baseRows), "ns")

	const n = loadChunk
	bp := autoindex.Apply(index.HNSW, n, index.BuildParams{Dim: dim, Metric: vec.L2}).WithDefaults()
	ix, err := index.New(index.HNSW, bp)
	if err != nil {
		return err
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	d := tr.timed("index.Build(HNSW)", nil, tr.newReq(), func(*openSpan) { err = ix.AddWithIDs(in.vecs.Data[:n*dim], ids) })
	if err != nil {
		return err
	}
	r.layer("index.build_rows_per_s", float64(n)/d.Seconds(), "rows/s")
	return nil
}

// insertLayers times in-process 32-row INSERTs into a side table:
// parse alone, and the whole Engine.Query, whose difference is the
// core + WAL path.
func (r *run) insertLayers(e *core.Engine, in *inputs) error {
	const table, count = "probe_core", 200
	tr := r.tr
	if _, err := e.Query(r.ctx, createSQL(table), core.QueryOptions{}); err != nil {
		return err
	}
	var parse, total []time.Duration
	for _, stmt := range in.insertSQL(table, 0, count*smallBatch, smallBatch) {
		req := tr.newReq()
		var err error
		parse = append(parse, tr.timed("sql.Parse(INSERT)", nil, req, func(*openSpan) { _, err = sql.Parse(stmt) }))
		if err != nil {
			return err
		}
		total = append(total, tr.timed("core.Engine.Query(INSERT)", nil, req, func(*openSpan) { _, err = e.Query(r.ctx, stmt, core.QueryOptions{}) }))
		if err != nil {
			return err
		}
	}
	p := medianDur(parse, time.Microsecond)
	r.layer("sql.parse_insert_us", p, "us")
	r.layer("core.insert_us", medianDur(total, time.Microsecond)-p, "us")
	return nil
}

// openLayers opens a fresh engine on each populated store and times
// the remote reads of the open and each segment's index load.
func (r *run) openLayers(stores []*storage.RemoteStore) error {
	tr := r.tr
	var gets, bytes []float64
	var loads []time.Duration
	for _, st := range stores {
		before := st.Snapshot()
		var e *core.Engine
		var err error
		tr.timed("core.New", nil, tr.newReq(), func(*openSpan) { e, err = core.New(serveConfig(st)) })
		if err != nil {
			return err
		}
		after := st.Snapshot()
		gets = append(gets, float64(after.Gets-before.Gets))
		bytes = append(bytes, float64(after.BytesRead-before.BytesRead))
		t := e.Table(tableName)
		for _, m := range t.Segments() {
			loads = append(loads, tr.timed("lsm.OpenIndexCtx", nil, tr.newReq(), func(*openSpan) { _, err = t.OpenIndexCtx(r.ctx, m.Name) }))
			if err != nil {
				e.Close()
				return err
			}
		}
		e.Close()
	}
	r.layer("storage.gets_per_open", median(gets), "count")
	r.layer("storage.bytes_per_open", median(bytes), "bytes")
	r.layer("index.load_ms", medianDur(loads, time.Millisecond), "ms")
	r.tr.printSelfTimes()
	return nil
}
