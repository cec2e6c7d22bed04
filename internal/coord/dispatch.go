package coord

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blendhouse/internal/core"
	"blendhouse/internal/exec"
	"blendhouse/internal/obs"
	"blendhouse/internal/server"
	"blendhouse/internal/sql"
	"blendhouse/pkg/api"
	"blendhouse/pkg/client"
)

// errBreakerOpen marks a leg skipped because the shard's breaker is
// open: the shard is treated as down without paying a dial attempt.
var errBreakerOpen = errors.New("coord: shard breaker open")

// rr spreads single-shard forwards (SHOW TABLES, DESCRIBE, EXPLAIN)
// across the cluster instead of hammering shard 0.
var rr atomic.Uint64

// Query implements server.Backend: parse the statement, route it
// across the shard set, and return a merged result whose errors match
// the core taxonomy (so server.StatusFor maps them exactly like a
// single-engine node's).
func (c *Coordinator) Query(ctx context.Context, src string, opts core.QueryOptions) (*exec.Result, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	// One trace ID spans the coordinator and every shard leg. The
	// serving layer normally minted one already; direct callers (tests,
	// benches) get one here.
	if obs.TraceIDFrom(ctx) == "" {
		ctx = obs.WithTraceID(ctx, obs.NewTraceID())
	}
	mStatements.Inc()
	st, err := sql.Parse(src)
	if err != nil {
		mStmtErrs.Inc()
		return nil, planErr(err)
	}
	kind := stmtKind(st)

	tr := opts.Trace
	if tr == nil && c.sampleTrace() {
		tr = obs.NewTrace("coordinate")
	}
	start := obs.Now()
	if tr != nil {
		tr.SetID(obs.TraceIDFrom(ctx))
		tr.Span().Set("statement", kind)
		tr.Span().Set("role", "coordinator")
		if opts.QueueWait > 0 {
			tr.Span().ChildDur("queue", opts.QueueWait)
		}
	}

	res, qerr := c.dispatch(ctx, st, src, opts, tr)
	dur := time.Since(start)
	mLatency.Observe(dur)
	if qerr != nil {
		mStmtErrs.Inc()
	} else if res != nil {
		if res.Partial {
			mPartial.Inc()
		}
		mMergedRows.Add(int64(len(res.Rows)))
	}
	if tr != nil {
		tr.Finish()
		errStr := ""
		if qerr != nil {
			errStr = qerr.Error()
		}
		obs.Traces().Add(&obs.TraceRecord{
			TraceID:   tr.ID(),
			Statement: kind,
			Query:     truncateQuery(src),
			Start:     start,
			Duration:  dur,
			Error:     errStr,
			Root:      tr.Span(),
		})
	}
	return res, qerr
}

// dispatch routes one parsed statement.
func (c *Coordinator) dispatch(ctx context.Context, st sql.Statement, src string, opts core.QueryOptions, tr *obs.Trace) (*exec.Result, error) {
	switch s := st.(type) {
	case *sql.Select:
		return c.scatterSelect(ctx, s, opts, tr)
	case *sql.Insert:
		return c.scatterInsert(ctx, s, opts, tr)
	case *sql.Delete:
		return c.scatterDelete(ctx, s, opts, tr)
	case *sql.CreateTable:
		return c.broadcast(ctx, src, "created table "+s.Name, opts, tr)
	case *sql.DropTable:
		return c.broadcast(ctx, src, "dropped table "+s.Name, opts, tr)
	case *sql.Optimize:
		return c.broadcast(ctx, src, "compacted "+s.Name, opts, tr)
	case *sql.ShowMetrics:
		// The coordinator's own registry (bh.coord.* + bh.server.*):
		// cluster-wide engine metrics live on the shards' endpoints.
		return showMetrics(), nil
	case *sql.ShowTraces:
		return showTraces(), nil
	default:
		// SHOW TABLES, DESCRIBE, EXPLAIN [ANALYZE], and anything the
		// coordinator has no cluster semantics for: every shard holds
		// the same catalog, so any one healthy shard can answer.
		return c.forwardAny(ctx, src, opts, tr)
	}
}

// stmtKind mirrors the engine's statement classification for traces
// and logs.
func stmtKind(st sql.Statement) string {
	switch st.(type) {
	case *sql.Select:
		return "select"
	case *sql.Insert:
		return "insert"
	case *sql.Delete:
		return "delete"
	case *sql.CreateTable:
		return "create_table"
	case *sql.DropTable:
		return "drop_table"
	case *sql.ShowTables, *sql.ShowMetrics, *sql.ShowTraces:
		return "show"
	case *sql.Explain:
		return "explain"
	case *sql.Describe:
		return "describe"
	case *sql.Optimize:
		return "optimize"
	}
	return "other"
}

// ---- shard legs -----------------------------------------------------

// legResult is one shard leg's outcome.
type legResult struct {
	shard   *shard
	res     *client.Result
	err     error
	skipped bool // breaker open: counted as a down shard without a call
}

// down reports whether the leg failed in a way that means the shard
// process is unreachable or going away (as opposed to the statement
// being rejected by a live shard).
func (lr legResult) down() bool {
	return lr.err != nil && (lr.skipped || legDown(lr.err))
}

// legDown classifies a pkg/client error: network-level failures and
// exhausted retries (non-APIError) mean the shard is down, as does an
// explicit DRAINING answer (the shard is going away). Every other API
// error — plan errors, unknown table, shed, timeout — came from a live
// shard executing (or rejecting) the statement.
func legDown(err error) bool {
	if errors.Is(err, client.ErrTimeout) || errors.Is(err, client.ErrCanceled) {
		return false // deadline/cancel is the statement's fault, not the shard's
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Code == api.CodeDraining
	}
	return true
}

// leg runs one statement against one shard, honoring its breaker and
// forwarding the statement's trace ID and remaining deadline.
func (c *Coordinator) leg(ctx context.Context, s *shard, stmt string, execRoute bool, opts core.QueryOptions, tr *obs.Trace) legResult {
	mLegs.Inc()
	if !s.brk.allow() {
		mLegSkips.Inc()
		if tr != nil {
			sp := tr.Span().Child("leg " + s.name)
			sp.Set("skipped", "breaker open")
			sp.End()
		}
		return legResult{shard: s, err: fmt.Errorf("%w: %s", errBreakerOpen, s.name), skipped: true}
	}
	var sp *obs.Span
	if tr != nil {
		sp = tr.Span().Child("leg " + s.name)
	}
	legOpts := []client.Option{client.WithTraceID(obs.TraceIDFrom(ctx))}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			// Enforce the remaining budget shard-side too, so a slow leg
			// cancels its segment scans instead of just being abandoned.
			legOpts = append(legOpts, client.WithTimeout(rem))
		}
	}
	if opts.MaxParallelism > 0 {
		legOpts = append(legOpts, client.WithMaxParallelism(opts.MaxParallelism))
	}
	start := time.Now()
	var res *client.Result
	var err error
	if execRoute {
		res, err = s.cli.Exec(ctx, stmt, legOpts...)
	} else {
		res, err = s.cli.Query(ctx, stmt, legOpts...)
	}
	mLegLatency.Observe(time.Since(start))
	if sp != nil {
		if err != nil {
			sp.Set("error", err.Error())
		}
		sp.End()
	}
	if err == nil {
		s.brk.success()
		return legResult{shard: s, res: res}
	}
	mLegErrs.Inc()
	switch {
	case ctx.Err() != nil || errors.Is(err, client.ErrTimeout) || errors.Is(err, client.ErrCanceled):
		s.brk.neutral() // the statement's budget ran out, not the shard
	case legDown(err):
		if s.brk.failure() {
			mBreakerTrip.Inc()
			coordLog.WarnContext(ctx, "shard breaker opened",
				"shard", s.name, "error", err.Error())
		}
	default:
		s.brk.success() // the shard answered; the statement failed
	}
	return legResult{shard: s, err: err}
}

// runLegs fans per-shard statements out concurrently, one leg each.
func (c *Coordinator) runLegs(ctx context.Context, shards []*shard, stmts []string, execRoute bool, opts core.QueryOptions, tr *obs.Trace) []legResult {
	out := make([]legResult, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = c.leg(ctx, shards[i], stmts[i], execRoute, opts, tr)
		}(i)
	}
	wg.Wait()
	return out
}

// ---- error mapping --------------------------------------------------

// planErr wraps a coordinator-side parse/validation failure so it maps
// to 400 PLAN like the engine's.
func planErr(err error) error {
	return fmt.Errorf("coord: %w: %w", core.ErrPlan, err)
}

func planErrf(format string, args ...any) error {
	return planErr(fmt.Errorf(format, args...))
}

// unavailable wraps a coverage-loss failure so the serving layer
// answers 502 UNAVAILABLE.
func unavailable(err error, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if err == nil {
		return fmt.Errorf("coord: %s: %w", msg, server.ErrUnavailable)
	}
	return fmt.Errorf("coord: %s: %w: %w", msg, server.ErrUnavailable, err)
}

// mapLegErr translates a pkg/client error from a shard leg into the
// core taxonomy, so the coordinator's serving layer answers with the
// same status/code the shard did — a coordinator in front of the
// cluster is transparent to error-classifying clients.
func mapLegErr(shardName string, err error) error {
	var sentinel error
	switch {
	case errors.Is(err, client.ErrTimeout):
		sentinel = core.ErrTimeout
	case errors.Is(err, client.ErrCanceled):
		sentinel = core.ErrCanceled
	case errors.Is(err, client.ErrUnknownTable):
		sentinel = core.ErrUnknownTable
	case errors.Is(err, client.ErrPlan):
		sentinel = core.ErrPlan
	case errors.Is(err, client.ErrShed), errors.Is(err, client.ErrDraining),
		errors.Is(err, client.ErrUnavailable):
		sentinel = server.ErrUnavailable
	default:
		return fmt.Errorf("coord: shard %s: %w", shardName, err)
	}
	return fmt.Errorf("coord: shard %s: %w: %w", shardName, sentinel, err)
}

// wrapCtx maps the statement context's own expiry onto the core
// taxonomy (mirrors the engine's wrapCtxErr).
func wrapCtx(ctx context.Context, fallback error) error {
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return fmt.Errorf("coord: %w: %w", core.ErrTimeout, ctx.Err())
	case errors.Is(ctx.Err(), context.Canceled):
		return fmt.Errorf("coord: %w: %w", core.ErrCanceled, ctx.Err())
	}
	return fallback
}

// ---- statement routing ----------------------------------------------

// forwardAny sends the statement to one healthy shard (round-robin
// start, walking past open breakers and down shards). A live shard's
// error is the statement's answer; only unreachable shards are walked
// past.
func (c *Coordinator) forwardAny(ctx context.Context, src string, opts core.QueryOptions, tr *obs.Trace) (*exec.Result, error) {
	start := int(rr.Add(1)) % len(c.shards)
	var lastDown legResult
	for i := 0; i < len(c.shards); i++ {
		s := c.shards[(start+i)%len(c.shards)]
		lr := c.leg(ctx, s, src, false, opts, tr)
		if lr.err == nil {
			return clientResult(lr.res), nil
		}
		if !lr.down() {
			return nil, mapLegErr(s.name, lr.err)
		}
		lastDown = lr
		if ctx.Err() != nil {
			return nil, wrapCtx(ctx, mapLegErr(s.name, lr.err))
		}
	}
	return nil, unavailable(lastDown.err, "no shard reachable (%d tried)", len(c.shards))
}

// broadcast sends DDL to every shard; it must reach all of them, so
// any unreachable shard fails the statement closed (partial DDL would
// diverge the shards' catalogs). A live shard's rejection (table
// exists, unknown table) is deterministic across shards and propagates
// as-is.
func (c *Coordinator) broadcast(ctx context.Context, src, okMsg string, opts core.QueryOptions, tr *obs.Trace) (*exec.Result, error) {
	stmts := make([]string, len(c.shards))
	for i := range stmts {
		stmts[i] = src
	}
	legs := c.runLegs(ctx, c.shards, stmts, true, opts, tr)
	okCount := 0
	var downLeg legResult
	for _, lr := range legs {
		switch {
		case lr.err == nil:
			okCount++
		case !lr.down():
			return nil, mapLegErr(lr.shard.name, lr.err)
		default:
			downLeg = lr
		}
	}
	if okCount < len(legs) {
		if ctx.Err() != nil {
			return nil, wrapCtx(ctx, downLeg.err)
		}
		return nil, unavailable(downLeg.err, "DDL reached %d/%d shards", okCount, len(legs))
	}
	return statusResult(fmt.Sprintf("OK: %s on %d shards", okMsg, okCount)), nil
}

// scatterInsert splits the rows by placement — each row's key (its
// first column) hashes to Replicas owner shards on the ring — and runs
// one INSERT leg per owning shard, preserving statement row order
// within each leg.
func (c *Coordinator) scatterInsert(ctx context.Context, ins *sql.Insert, opts core.QueryOptions, tr *obs.Trace) (*exec.Result, error) {
	if ins.Infile != "" {
		return nil, planErrf("INSERT ... INFILE is not supported in coordinate mode (the file is local to the coordinator); use VALUES, or load shards directly")
	}
	if len(ins.Rows) == 0 {
		return nil, planErrf("INSERT with no rows")
	}
	perShard := make(map[string][][]any)
	for _, row := range ins.Rows {
		if len(row) == 0 {
			return nil, planErrf("INSERT with an empty row")
		}
		key := renderValue(row[0])
		owners := c.ring.GetN(key, c.replicas)
		if len(owners) == 0 {
			return nil, unavailable(nil, "placement ring is empty")
		}
		for _, owner := range owners {
			perShard[owner] = append(perShard[owner], row)
		}
	}
	names := make([]string, 0, len(perShard))
	for n := range perShard {
		names = append(names, n)
	}
	sort.Strings(names)
	shards := make([]*shard, len(names))
	stmts := make([]string, len(names))
	for i, n := range names {
		shards[i] = c.byName[n]
		stmts[i] = renderInsert(ins.Table, perShard[n])
	}
	legs := c.runLegs(ctx, shards, stmts, true, opts, tr)
	return c.dmlOutcome(ctx, legs, fmt.Sprintf(
		"OK: inserted %d rows into %s across %d shards (replicas=%d)",
		len(ins.Rows), ins.Table, len(legs), c.replicas))
}

// scatterDelete routes each key to its Replicas owner shards (the same
// placement as scatterInsert, so deletes find the rows inserts put
// there) and runs one DELETE leg per owning shard.
func (c *Coordinator) scatterDelete(ctx context.Context, del *sql.Delete, opts core.QueryOptions, tr *obs.Trace) (*exec.Result, error) {
	if len(del.Keys) == 0 {
		return nil, planErrf("DELETE with no keys")
	}
	perShard := make(map[string][]int64)
	for _, k := range del.Keys {
		key := strconv.FormatInt(k, 10)
		owners := c.ring.GetN(key, c.replicas)
		if len(owners) == 0 {
			return nil, unavailable(nil, "placement ring is empty")
		}
		for _, owner := range owners {
			perShard[owner] = append(perShard[owner], k)
		}
	}
	names := make([]string, 0, len(perShard))
	for n := range perShard {
		names = append(names, n)
	}
	sort.Strings(names)
	shards := make([]*shard, len(names))
	stmts := make([]string, len(names))
	for i, n := range names {
		shards[i] = c.byName[n]
		stmts[i] = renderDelete(del.Table, del.Column, perShard[n])
	}
	legs := c.runLegs(ctx, shards, stmts, true, opts, tr)
	return c.dmlOutcome(ctx, legs, fmt.Sprintf(
		"OK: deleted %d keys from %s across %d shards (replicas=%d)",
		len(del.Keys), del.Table, len(legs), c.replicas))
}

// dmlOutcome applies the multi-leg DML failure policy: all legs
// succeeded → status row; a live shard rejected the statement → its
// (deterministic) error propagates; any leg failed while another
// succeeded → the statement is partially applied, which is a
// non-retryable internal failure; nothing succeeded against an
// unreachable cluster → UNAVAILABLE.
func (c *Coordinator) dmlOutcome(ctx context.Context, legs []legResult, okMsg string) (*exec.Result, error) {
	okCount := 0
	var aliveErr error
	var aliveShard string
	var downLeg legResult
	var firstErr error
	for _, lr := range legs {
		switch {
		case lr.err == nil:
			okCount++
			continue
		case !lr.down():
			if aliveErr == nil {
				aliveErr, aliveShard = lr.err, lr.shard.name
			}
		default:
			downLeg = lr
		}
		if firstErr == nil {
			firstErr = lr.err
		}
	}
	switch {
	case okCount == len(legs):
		return statusResult(okMsg), nil
	case okCount == 0 && aliveErr != nil:
		// Every leg failed and at least one shard is live: a statement
		// problem (unknown table, bad values), identical on all shards.
		return nil, mapLegErr(aliveShard, aliveErr)
	case okCount == 0:
		if ctx.Err() != nil {
			return nil, wrapCtx(ctx, downLeg.err)
		}
		return nil, unavailable(downLeg.err, "DML reached 0/%d shards", len(legs))
	default:
		// Mixed outcome: some shards applied the statement, some did
		// not. Retrying could double-apply on the shards that succeeded,
		// so this is a non-retryable internal failure; the client sees
		// 500 INTERNAL and must reconcile.
		if ctx.Err() != nil {
			return nil, wrapCtx(ctx, firstErr)
		}
		return nil, fmt.Errorf("coord: DML partially applied (%d/%d shard legs succeeded): %w",
			okCount, len(legs), firstErr)
	}
}

// scatterSelect fans the (rewritten) SELECT out to every shard and
// merges the per-shard top-k deterministically (merge.go). Coverage
// policy: with R = Replicas, missing fewer than R shards still yields
// a complete result (every key has R owners, so a surviving owner
// answered); at R or more missing, the result would silently drop
// rows, so the query fails closed with UNAVAILABLE unless the session
// opted in via SET allow_partial = on.
func (c *Coordinator) scatterSelect(ctx context.Context, sel *sql.Select, opts core.QueryOptions, tr *obs.Trace) (*exec.Result, error) {
	plan := buildMergePlan(sel)
	stmt := renderSelect(sel)
	stmts := make([]string, len(c.shards))
	for i := range stmts {
		stmts[i] = stmt
	}
	legs := c.runLegs(ctx, c.shards, stmts, false, opts, tr)

	var results []*client.Result
	downCount := 0
	var downLeg legResult
	for _, lr := range legs {
		switch {
		case lr.err == nil:
			results = append(results, lr.res)
		case !lr.down():
			// A live shard rejected or failed the query (plan error,
			// unknown table, timeout): deterministic across shards, so
			// it is the query's answer.
			return nil, mapLegErr(lr.shard.name, lr.err)
		default:
			downCount++
			downLeg = lr
		}
	}
	if len(results) == 0 {
		if ctx.Err() != nil {
			return nil, wrapCtx(ctx, downLeg.err)
		}
		return nil, unavailable(downLeg.err, "no shard answered (%d down)", downCount)
	}
	partial := false
	if downCount >= c.replicas {
		if !opts.AllowPartial {
			return nil, unavailable(downLeg.err,
				"%d/%d shards unreachable with %d replicas — rows may be missing (SET allow_partial = on to accept)",
				downCount, len(c.shards), c.replicas)
		}
		partial = true
	}
	res, err := mergeResults(results, plan, c.replicas > 1)
	if err != nil {
		return nil, err
	}
	res.Partial = partial
	return res, nil
}

// ---- local result helpers -------------------------------------------

// clientResult converts a shard's wire result to the backend result
// shape. Values stay as decoded (json.Number for numerics), which the
// serving layer re-encodes byte-identically.
func clientResult(r *client.Result) *exec.Result {
	return &exec.Result{Columns: r.Columns, Rows: r.Rows}
}

func statusResult(msg string) *exec.Result {
	return &exec.Result{Columns: []string{"status"}, Rows: [][]any{{msg}}}
}

// showMetrics renders the coordinator's process registry, same shape
// as the engine's SHOW METRICS.
func showMetrics() *exec.Result {
	res := &exec.Result{Columns: []string{"metric", "value"}}
	for _, kv := range obs.Default().Snapshot() {
		res.Rows = append(res.Rows, []any{kv.Key, kv.Value})
	}
	return res
}

// showTraces renders the coordinator's trace ring, same shape as the
// engine's SHOW TRACES.
func showTraces() *exec.Result {
	res := &exec.Result{Columns: []string{"trace_id", "start", "duration_ms", "statement", "status", "slow", "query"}}
	for _, r := range obs.Traces().Snapshot() {
		status := "ok"
		if r.Error != "" {
			status = "error: " + r.Error
		}
		slow := ""
		if r.Slow {
			slow = "slow"
		}
		res.Rows = append(res.Rows, []any{
			r.TraceID,
			r.Start.Format(time.RFC3339Nano),
			float64(r.Duration.Microseconds()) / 1000,
			r.Statement,
			status,
			slow,
			r.Query,
		})
	}
	return res
}
