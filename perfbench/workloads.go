package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"blendhouse/internal/core"
	"blendhouse/internal/exec"
	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
	"blendhouse/pkg/client"
)

// Fixed load parameters. The open-loop rates are well under what the
// engine sustains with a closed loop on the 2-core reference box
// (about 500 mixed statements/s warm; about 60/s for the reader beside
// the writer), so the queue stays short and latency, not saturation,
// is read.
const (
	setupReps        = 3                    // set-ups per untraced run; setup_s is their median
	loadShare        = 0.75                 // share of the run's seconds the measured load takes
	rounds           = 6                    // measured rounds: every phase of a workload is spread over the whole run
	hybridRate       = 100.0                // hybrid-warm open loop, statements/s
	ingestReaderRate = 20.0                 // ingest-mixed reader, statements/s
	ingestThink      = 6 * time.Millisecond // ingest-mixed writer's pause between an ack and its next INSERT
	ingestRowsPerSec = 2900                 // ingest-mixed writer total = this × the load's seconds (about its whole length)
	coldSeries       = 20                   // statements per cold-start cycle
	coldMinCycles    = 60                   // ≥1200 cold statements, enough for a p99
	probeInserts     = 1200                 // single-row INSERTs in the write probe
	reopenReps       = 7                    // core.New repetitions behind open_ms
	recallFloor      = 0.90                 // recall_at_10 below this fails the run
)

// phase is a share of the run's measured seconds.
func (r *run) phase(share float64) time.Duration {
	return time.Duration(share * float64(r.seconds) * float64(time.Second))
}

// e2e records an end-to-end metric; the traced run prints it as a note
// only, because end-to-end figures come from untraced runs.
func (r *run) e2e(name string, v float64, unit string) {
	if r.traced {
		r.note("%s = %.4f %s (traced; not reported)", name, v, unit)
		return
	}
	r.set(name, v, unit)
}

// e2eLatency is latency for end-to-end metrics.
func (r *run) e2eLatency(prefix string, lats []time.Duration) {
	if r.traced {
		t := summarize(lats)
		r.note("%s latency (traced; not reported): p50 %.3f ms, p%g %.3f ms, %d samples", prefix, t.P50, t.TailPct, t.Tail, t.N)
		return
	}
	r.latency(prefix, lats)
}

// setUp builds the workload's system setupReps times from empty
// stores (once when traced) and returns them all running. It records
// setup_s (the median) and heap_mb (the live heap one system adds).
func (r *run) setUp(shards int, in *inputs) ([]*system, error) {
	reps := setupReps
	if r.traced {
		reps = 1
	}
	inserts := in.insertSQL(tableName, 0, baseRows, loadChunk)
	base := liveHeapMB()
	var totals []float64
	var systems []*system
	var last setupTiming
	for i := 0; i < reps; i++ {
		s, st, err := setUp(r.ctx, shards, inserts)
		if err != nil {
			closeAll(systems)
			return nil, err
		}
		systems = append(systems, s)
		totals = append(totals, st.total.Seconds())
		last = st
	}
	r.e2e("setup_s", median(totals), "s")
	r.note("set-up runs (s): %v", fmtFloats(totals))
	r.e2e("heap_mb", (liveHeapMB()-base)/float64(reps), "MB")
	runtime.KeepAlive(inserts) // counted in base, so live until the second reading
	if r.traced {
		r.layer("setup.ingest_s", last.ingest.Seconds(), "s")
		r.layer("setup.flush_s", last.flush.Seconds(), "s")
	}
	return systems, nil
}

func closeAll(systems []*system) {
	for _, s := range systems {
		s.close()
	}
}

// keepLast closes every system but the last and returns that one.
func keepLast(systems []*system) *system {
	closeAll(systems[:len(systems)-1])
	return systems[len(systems)-1]
}

func fmtFloats(vs []float64) string {
	var b bytes.Buffer
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(v, 'f', 3, 64))
	}
	return b.String()
}

// engines lists the system's engines.
func (s *system) engines() []*core.Engine {
	out := make([]*core.Engine, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.engine
	}
	return out
}

// planOf plans stmt on one engine, as the engine would.
func planOf(e *core.Engine, stmt string) (*plan.Physical, error) {
	st, err := sql.Parse(stmt)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %.40s", stmt)
	}
	return e.Planner().Plan(sel, e.Table(sel.Table))
}

// shape names a plan as the per-layer metrics do.
func shape(ph *plan.Physical) string {
	if ph.Logical.Range != nil {
		return "range"
	}
	return ph.Strategy.String()
}

// referencePass runs every distinct statement once, serially, through
// a session with batching off (or, on a coordinator, through the front
// door) and returns each answer: the reference the measured responses
// of this system must match byte for byte. Statements every engine
// plans as brute force must equal ground truth; range answers must
// hold only rows inside the radius; the top-10 answers give the
// returned recall@10.
func (r *run) referencePass(s *system, in *inputs, batchOff bool) ([][]byte, float64, error) {
	cli := s.cli
	if batchOff {
		c, err := dial(s.frontAddr(), 1)
		if err != nil {
			return nil, 0, err
		}
		defer c.close()
		if err := c.Set(r.ctx, "batch", "off"); err != nil {
			return nil, 0, fmt.Errorf("SET batch = off: %w", err)
		}
		cli = c
	}
	refs := make([][]byte, len(in.stmts))
	shapes := map[string]int{}
	serial := map[string][]time.Duration{}
	exactN, exactBad := 0, 0
	outside := 0 // range answers holding a row beyond the radius
	var recallSum, rangeRecall float64
	recallN, rangeN := 0, 0
	for i := range in.stmts {
		st := &in.stmts[i]
		exact, err := r.plansExact(s, st, shapes)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		res, err := cli.Query(r.ctx, st.sql)
		if err != nil {
			return nil, 0, fmt.Errorf("reference %s statement: %w", st.class, err)
		}
		serial[st.class] = append(serial[st.class], time.Since(t0))
		// A background flush can change the table statistics, and so
		// the plan, while the statement runs: it counts as exact only
		// if it planned as brute force both before and after.
		again, err := r.plansExact(s, st, nil)
		if err != nil {
			return nil, 0, err
		}
		if refs[i], err = json.Marshal(res.Rows); err != nil {
			return nil, 0, err
		}
		ids, err := idsOf(res.Rows)
		if err != nil {
			return nil, 0, err
		}
		if exact && again {
			exactN++
			if !sameIDs(ids, st.truth) {
				exactBad++
			}
		}
		if st.class == "range" {
			// HNSW serves the range search approximately: a returned
			// row must lie inside the radius, but one may be missed.
			if recall(st.truth, ids) < 1 {
				outside++
			}
			rangeRecall += recall(ids, st.truth)
			rangeN++
		} else {
			recallSum += recall(ids, st.truth)
			recallN++
		}
	}
	for _, c := range classes {
		for k, n := range shapes {
			if strings.HasPrefix(k, c.name+" ") {
				t := summarize(serial[c.name])
				r.note("plan %s: %d statements, serial p50 %.3f ms, max %.3f ms", k, n, t.P50, maxMS(serial[c.name]))
			}
		}
	}
	r.gate(exactBad == 0, "%d of %d brute-force answers equal ground truth", exactN-exactBad, exactN)
	r.gate(outside == 0, "%d of %d range answers hold only rows inside the radius", rangeN-outside, rangeN)
	r.note("range recall %.4f over %d statements (approximate: served by the HNSW range search)", rangeRecall/float64(rangeN), rangeN)
	rec := recallSum / float64(recallN)
	r.gate(rec >= recallFloor, "recall_at_10 %.4f >= floor %.2f", rec, recallFloor)
	return refs, rec, nil
}

func maxMS(ds []time.Duration) float64 {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return float64(m) / 1e6
}

// plansExact reports whether every engine plans st as brute force,
// tallying the plan shapes into shapes when it is not nil.
func (r *run) plansExact(s *system, st *statement, shapes map[string]int) (bool, error) {
	exact := true
	for _, e := range s.engines() {
		ph, err := planOf(e, st.sql)
		if err != nil {
			return false, fmt.Errorf("planning %s statement: %w", st.class, err)
		}
		if shapes != nil {
			shapes[st.class+" → "+shape(ph)]++
		}
		if ph.Strategy != plan.BruteForce || ph.Logical.Range != nil {
			exact = false
		}
	}
	return exact, nil
}

// idsOf reads the id column of result rows.
func idsOf(rows [][]any) ([]int64, error) {
	out := make([]int64, len(rows))
	for i, row := range rows {
		if len(row) == 0 {
			return nil, fmt.Errorf("empty result row")
		}
		id, err := toInt64(row[0])
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}

func toInt64(v any) (int64, error) {
	switch x := v.(type) {
	case json.Number:
		return x.Int64()
	case int64:
		return x, nil
	case uint64:
		return int64(x), nil
	case int:
		return int64(x), nil
	case float64:
		return int64(x), nil
	}
	return 0, fmt.Errorf("unexpected id value %T", v)
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func recall(got, truth []int64) float64 {
	if len(truth) == 0 {
		return 1
	}
	want := make(map[int64]bool, len(truth))
	for _, id := range truth {
		want[id] = true
	}
	hit := 0
	for _, id := range got {
		if want[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// mix sends the statement mix in the seeded order and counts answers
// that differ from their reference. Without references (data still
// changing) only errors count.
type mix struct {
	r          *run
	cli        *conn
	in         *inputs
	refs       [][]byte // per statement; nil = data still changing, do not check
	mismatches atomic.Int64
}

func (m *mix) send(seq int) error {
	i := m.in.order[seq%len(m.in.order)]
	st := &m.in.stmts[i]
	var res *client.Result
	var err error
	if tr := m.r.liveTracer(); tr != nil {
		req := tr.newReq()
		tr.timed("client.Query", nil, req, func(*openSpan) { res, err = m.cli.Query(m.r.ctx, st.sql) })
	} else {
		res, err = m.cli.Query(m.r.ctx, st.sql)
	}
	if err != nil {
		return err
	}
	if m.refs != nil {
		b, merr := json.Marshal(res.Rows)
		if merr != nil || !bytes.Equal(b, m.refs[i]) {
			m.mismatches.Add(1)
		}
	}
	return nil
}

// gateMix fails the run if any of the n measured answers differed
// from its reference.
func (r *run) gateMix(mismatches int64, n int) {
	r.gate(mismatches == 0, "%d of %d measured answers byte-identical to their reference", int64(n)-mismatches, n)
}

// probe is the write probe: the insert metrics of the workloads that
// have no writer of their own. It sends probeInserts serial single-row
// INSERTs into a fresh table through the front door, a slice per round
// so that it samples the whole run. Its rows stay far under the
// memtable's flush threshold, so only the timed flush runs, over a few
// hundred rows, and no large index build competes with it.
type probe struct {
	r       *run
	systems []*system // round i writes to systems[i mod len]
	stmts   []string
	next    int
	sent    []int64   // acknowledged rows per system
	rates   []float64 // rows/s per slice
	res     loadResult
}

func (r *run) newProbe(in *inputs, systems []*system) (*probe, error) {
	p := &probe{r: r, systems: systems, sent: make([]int64, len(systems))}
	for len(p.stmts) < probeInserts {
		p.stmts = append(p.stmts, in.insertSQL(probeTable, 0, baseRows, probeBatch)...)
	}
	p.stmts = p.stmts[:probeInserts]
	for _, s := range systems {
		if _, err := s.cli.Exec(r.ctx, createSQL(probeTable)); err != nil {
			return nil, fmt.Errorf("create probe table: %w", err)
		}
	}
	return p, nil
}

// step sends round's slice of the probe, after a collection, so the
// slice does not pay for the garbage of the phase before it.
func (p *probe) step(round int) {
	runtime.GC()
	s := p.systems[round%len(p.systems)]
	from := p.next
	p.next = min(len(p.stmts), from+len(p.stmts)/rounds)
	res := serialLoop(p.next-from, func(i int) error {
		_, err := s.cli.Exec(p.r.ctx, p.stmts[from+i])
		return err
	})
	p.sent[round%len(p.systems)] += int64(len(res.lats) * probeBatch)
	p.rates = append(p.rates, float64(len(res.lats)*probeBatch)/res.elapsed.Seconds())
	p.res.add(res)
}

// report records the insert metrics (the rate is the median over the
// slices) and checks that every system's
// probe table holds exactly the rows acknowledged to it.
func (p *probe) report() error {
	r := p.r
	r.count(p.res)
	r.e2e("insert_rows_per_s", median(p.rates), "rows/s")
	r.e2eLatency("insert", p.res.lats)
	for i, s := range p.systems {
		if err := r.verifyRows(s, probeTable, p.sent[i]); err != nil {
			return err
		}
	}
	return nil
}

// verifyRows checks through SHOW TABLES on every node that a table
// holds exactly the acknowledged rows.
func (r *run) verifyRows(s *system, table string, want int64) error {
	var got int64
	for _, n := range s.nodes {
		c, err := dial(n.srv.Addr(), 1)
		if err != nil {
			return err
		}
		res, err := c.Query(r.ctx, "SHOW TABLES")
		c.close()
		if err != nil {
			return fmt.Errorf("SHOW TABLES: %w", err)
		}
		for _, row := range res.Rows {
			if len(row) > 1 && row[0] == table {
				n, err := toInt64(row[1])
				if err != nil {
					return err
				}
				got += n
			}
		}
	}
	r.gate(got == want, "SHOW TABLES: %s holds %d rows; %d acknowledged", table, got, want)
	return nil
}

// finish closes the system, then records space_amp over the main
// table and, unless the workload measured it already, open_ms from
// reopening every store.
func (r *run) finish(s *system, userRows int, measureOpen bool) error {
	s.close()
	var backings []*storage.MemStore
	var stores []*storage.RemoteStore
	for _, n := range s.nodes {
		backings = append(backings, n.backing)
		stores = append(stores, n.store)
	}
	stored, err := storedBytes(backings, tableName)
	if err != nil {
		return err
	}
	r.e2e("space_amp", float64(stored)/float64(userRows*rowBytes), "ratio")
	if r.traced {
		if err := r.openLayers(stores); err != nil {
			return err
		}
	}
	if !measureOpen {
		return nil
	}
	opens, err := reopen(stores, reopenReps)
	if err != nil {
		return err
	}
	r.e2e("open_ms", medianDur(opens, time.Millisecond), "ms")
	return nil
}

// hybridWarm: 20k rows fully warm, a 2-client closed loop for qps and
// an open loop at a fixed rate for latency, every answer checked. The
// load is split evenly over the set-up systems: each engine calibrates
// its planner on its own, and spreading the run over several engines
// averages that draw instead of letting one decide the run.
func hybridWarm(r *run) error {
	in := generate(r.seed, baseRows)
	systems, err := r.setUp(1, in)
	if err != nil {
		return err
	}
	defer closeAll(systems)
	mixes := make([]*mix, len(systems))
	var recalls []float64
	for i, s := range systems {
		refs, rec, err := r.referencePass(s, in, true)
		if err != nil {
			return err
		}
		recalls = append(recalls, rec)
		mixes[i] = &mix{r: r, cli: s.cli, in: in, refs: refs}
	}
	// load runs the rounds over share of the run, round i on system
	// i mod 3: the closed loop for half the round, the open loop for the
	// other half, then (with a probe) the round's slice of the probe.
	// With restart, a system's later rounds each run on a fresh engine
	// over its store, warmed by a new reference pass: every engine draws
	// its own planner calibration, so more draws average into the run.
	load := func(share float64, pr *probe, restart bool) (closed, open loadResult, err error) {
		per := share / rounds
		var rates []float64
		for i := 0; i < rounds; i++ {
			runtime.GC() // each round starts without the previous one's garbage
			m := mixes[i%len(mixes)]
			if restart && i >= len(systems) {
				s := systems[i%len(systems)]
				if err := s.restart(); err != nil {
					return closed, open, err
				}
				refs, rec, err := r.referencePass(s, in, true)
				if err != nil {
					return closed, open, err
				}
				recalls = append(recalls, rec)
				m.cli, m.refs = s.cli, refs
			}
			c := closedLoop(nproc, r.phase(per/2), m.send)
			rates = append(rates, c.windowRate())
			closed.add(c)
			open.add(openLoop(hybridRate, int(hybridRate*r.phase(per/2).Seconds()), nproc, m.send))
			if pr != nil {
				pr.step(i)
			}
		}
		t := summarize(closed.lats)
		r.note("closed loop (%d clients): %.1f statements/s over the whole phase; p50 %.3f ms, p%g %.3f ms over %d", nproc, closed.rate(), t.P50, t.TailPct, t.Tail, t.N)
		r.note("closed-loop statements/s per round: %s", fmtFloats(rates))
		r.noteLateness(open)
		return closed, open, nil
	}
	s := systems[len(systems)-1]
	if r.traced {
		r.e2e("recall_at_10", mean(recalls), "ratio")
		r.tracedLoad(s, nil, func(share float64) loadResult {
			closed, open, _ := load(share, nil, false)
			open.attempted += closed.attempted
			open.failed += closed.failed
			return open
		})
		r.writeLayers(s, baseRows)
		if err := r.probeLayers(s, in); err != nil {
			return err
		}
	} else {
		pr, err := r.newProbe(in, systems)
		if err != nil {
			return err
		}
		before := snapshot(s)
		closed, open, err := load(loadShare, pr, true)
		if err != nil {
			return err
		}
		r.e2e("recall_at_10", mean(recalls), "ratio")
		r.count(closed)
		r.count(open)
		r.e2e("qps", closed.windowRate(), "1/s")
		r.e2eLatency("query", open.lats)
		d := snapshot(s).sub(before)
		r.note("batching: %d of %d SELECTs ran in shared-scan groups", d.batchGrouped, d.batchQueries)
		var mismatches int64
		for _, m := range mixes {
			mismatches += m.mismatches.Load()
		}
		r.gateMix(mismatches, len(closed.lats)+len(open.lats))
		if err := pr.report(); err != nil {
			return err
		}
	}
	return r.finish(keepLast(systems), baseRows, true)
}

// noteLateness prints how far behind schedule an open loop ran.
func (r *run) noteLateness(res loadResult) {
	t := summarize(res.late)
	r.note("open loop: %d requests, generator lateness p50 %.3f ms, p%g %.3f ms", len(res.late), t.P50, t.TailPct, t.Tail)
}

// coldStart: reopen the populated store over and over; each cycle
// opens an engine, runs a fixed series of warm statements serially in
// process, and closes it, so every read goes to remote storage. The
// write probe runs between the rounds on an engine of its own, over a
// store of its own, so the cold engines never see its table.
func coldStart(r *run) error {
	in := generate(r.seed, baseRows)
	systems, err := r.setUp(1, in)
	if err != nil {
		return err
	}
	s := keepLast(systems)
	_, rec, err := r.referencePass(s, in, true)
	s.close()
	if err != nil {
		return err
	}
	r.e2e("recall_at_10", rec, "ratio")
	n := s.nodes[0]
	// Each cycle's series takes the same number of statements from every
	// class, in class order, so the classes that pay the cold loads do
	// not depend on the seed. Successive cycles take each class's next
	// statements in the seeded order, so the run covers the whole mix
	// instead of letting the seed's first few statements decide it.
	byClass := make([][]*statement, len(classes))
	for ci, c := range classes {
		for _, i := range in.order {
			if st := &in.stmts[i]; st.class == c.name {
				byClass[ci] = append(byClass[ci], st)
			}
		}
	}
	perCycle := coldSeries / len(classes)
	seriesOf := func(c int) []*statement {
		var out []*statement
		for _, sts := range byClass {
			for j := 0; j < perCycle; j++ {
				out = append(out, sts[(c*perCycle+j)%len(sts)])
			}
		}
		return out
	}
	var mismatches, exactN int64
	var opens []time.Duration
	cycle := func(res *loadResult, cs *colStats) {
		series := seriesOf(len(opens))
		var e *core.Engine
		var err error
		tr := r.liveTracer()
		var cyc *openSpan
		var req int64
		if tr != nil {
			req = tr.newReq()
			cyc = tr.start("cold cycle", nil, req)
			opens = append(opens, tr.timed("core.New", cyc, req, func(*openSpan) { e, err = core.New(serveConfig(n.store)) }))
		} else {
			t0 := time.Now()
			e, err = core.New(serveConfig(n.store))
			opens = append(opens, time.Since(t0))
		}
		if err != nil {
			res.attempted++
			res.failed++
			return
		}
		for _, st := range series {
			t0 := time.Now()
			var out *exec.Result
			var qerr error
			if tr != nil {
				tr.timed("core.Engine.Query", cyc, req, func(*openSpan) {
					out, qerr = e.Query(r.ctx, st.sql, core.QueryOptions{})
				})
			} else {
				out, qerr = e.Query(r.ctx, st.sql, core.QueryOptions{})
			}
			res.attempted++
			if qerr != nil {
				res.failed++
				continue
			}
			res.lats = append(res.lats, time.Since(t0))
			// Each cold engine calibrates its own CBO, so an
			// approximate statement may take another plan than on
			// the reference engine: only exact answers are compared.
			ph, perr := planOf(e, st.sql)
			ids, ierr := idsOf(out.Rows)
			switch {
			case perr != nil || ierr != nil:
				mismatches++
			case ph.Logical.Range != nil:
				if recall(st.truth, ids) < 1 {
					mismatches++
				}
			case ph.Strategy == plan.BruteForce:
				if !sameIDs(ids, st.truth) {
					mismatches++
				}
				exactN++
			}
		}
		if cs != nil {
			cs.add(e)
		}
		e.Close()
		if cyc != nil {
			cyc.end()
		}
	}
	// cycles runs the rounds over share of the run, each at least
	// minCycles/rounds cycles long, with a slice of the probe after
	// each round; the probe's time is not the cycles' time.
	var rates []float64 // statements/s per round
	cycles := func(share float64, minCycles int, cs *colStats, pr *probe) loadResult {
		var res loadResult
		for round := 0; round < rounds; round++ {
			runtime.GC() // each round starts without the previous one's garbage
			start, done := time.Now(), len(res.lats)
			deadline := start.Add(r.phase(share / rounds))
			for c := 0; c < max(1, minCycles/rounds) || time.Now().Before(deadline); c++ {
				cycle(&res, cs)
			}
			res.elapsed += time.Since(start)
			rates = append(rates, float64(len(res.lats)-done)/time.Since(start).Seconds())
			if pr != nil {
				pr.step(round)
			}
		}
		return res
	}
	if r.traced {
		cs := &colStats{}
		r.tracedLoad(s, cs, func(share float64) loadResult { return cycles(share, 1, cs, nil) })
		r.writeLayers(s, baseRows)
		// The in-process layer probes run on one more engine over the
		// populated store, closed again before finish reopens it.
		pn, err := startNode(n.backing, n.store)
		if err != nil {
			return err
		}
		ps := &system{nodes: []*node{pn}}
		ps.cli, err = dial(pn.srv.Addr(), nproc)
		if err == nil {
			err = r.probeLayers(ps, in)
		}
		ps.close()
		if err != nil {
			return err
		}
	} else {
		pn, err := startNode(newStore())
		if err != nil {
			return err
		}
		ps := &system{nodes: []*node{pn}}
		defer ps.close()
		if ps.cli, err = dial(pn.srv.Addr(), nproc); err != nil {
			return err
		}
		pr, err := r.newProbe(in, []*system{ps})
		if err != nil {
			return err
		}
		res := cycles(loadShare, coldMinCycles, nil, pr)
		r.count(res)
		r.e2e("qps", median(rates), "1/s")
		r.note("statements/s per round: %s", fmtFloats(rates))
		r.e2eLatency("query", res.lats)
		r.e2e("open_ms", medianDur(opens, time.Millisecond), "ms")
		r.note("%d cycles of %d statements", len(opens), perCycle*len(classes))
		r.gate(mismatches == 0, "%d cold answers wrong (brute force must equal ground truth, %d checked; range must stay inside the radius)", mismatches, exactN)
		if err := pr.report(); err != nil {
			return err
		}
	}
	return r.finish(s, baseRows, false)
}

// ingestMixed: one writer inserting a fixed number of rows in 32-row
// INSERTs, closed loop with a 3 ms pause after each ack, beside one
// reader sending the hybrid mix at a fixed rate; then every
// acknowledged row must be visible and the mix must still find its
// answers. Without the pause the writer saturates the 2-core box (each
// flush's index build takes a core) and the reader's latency swung by
// 2x between seeds; as an open loop at a fixed rate, one flush stall
// queued every INSERT behind it and the writer's tail swung instead.
func ingestMixed(r *run) error {
	writeRows := int(ingestRowsPerSec*loadShare*float64(r.seconds)) / smallBatch * smallBatch
	in := generate(r.seed, baseRows+writeRows)
	writes := in.insertSQL(tableName, baseRows, baseRows+writeRows, smallBatch)
	systems, err := r.setUp(1, in)
	if err != nil {
		return err
	}
	s := keepLast(systems)
	defer s.close()
	wcli, err := dial(s.frontAddr(), 1)
	if err != nil {
		return err
	}
	defer wcli.close()
	rcli, err := dial(s.frontAddr(), nproc-1)
	if err != nil {
		return err
	}
	defer rcli.close()
	m := &mix{r: r, cli: rcli, in: in}
	warm := serialLoop(len(in.stmts), m.send) // warm the caches the reader will hit
	r.count(warm)
	var acked atomic.Int64
	load := func(share float64, from, to int) (reads, writesRes loadResult) {
		done := make(chan loadResult)
		go func() {
			done <- pacedLoop(to-from, ingestThink, func(i int) error {
				stmt := writes[from+i]
				var err error
				if tr := r.liveTracer(); tr != nil {
					tr.timed("client.Exec(INSERT)", nil, tr.newReq(), func(*openSpan) { _, err = wcli.Exec(r.ctx, stmt) })
				} else {
					_, err = wcli.Exec(r.ctx, stmt)
				}
				if err == nil {
					acked.Add(smallBatch)
				}
				return err
			})
		}()
		reads = openLoop(ingestReaderRate, int(ingestReaderRate*r.phase(share).Seconds()), nproc-1, m.send)
		writesRes = <-done
		return reads, writesRes
	}
	if r.traced {
		// Half the rows untraced, half traced: the same writer and
		// reader either way.
		half, calls := len(writes)/2, 0
		r.tracedLoad(s, nil, func(share float64) loadResult {
			from, to := 0, half
			if calls++; calls == 2 {
				from, to = half, len(writes)
			}
			reads, wr := load(loadShare/2, from, to)
			r.count(wr)
			return reads
		})
		r.writeLayers(s, baseRows+int(acked.Load()))
	} else {
		reads, wr := load(loadShare, 0, len(writes))
		r.count(reads)
		r.count(wr)
		r.noteLateness(reads)
		r.e2e("qps", reads.rate(), "1/s")
		r.e2eLatency("query", reads.lats)
		r.e2e("insert_rows_per_s", float64(len(wr.lats)*smallBatch)/wr.elapsed.Seconds(), "rows/s")
		r.e2eLatency("insert", wr.lats)
		r.note("writer: %d INSERTs in %.2f s; reader: %d statements in %.2f s", wr.attempted, wr.elapsed.Seconds(), reads.attempted, reads.elapsed.Seconds())
	}
	if err := r.verifyRows(s, tableName, int64(baseRows)+acked.Load()); err != nil {
		return err
	}
	_, rec, err := r.referencePass(s, in, true)
	if err != nil {
		return err
	}
	r.e2e("recall_at_10", rec, "ratio")
	if r.traced {
		if err := r.probeLayers(s, in); err != nil {
			return err
		}
	}
	return r.finish(s, baseRows+writeRows, true)
}
