package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/vec"
)

// Sizing. The table is dim-64 with a sequential attr column (attr = id),
// so a selectivity-s filter is a window of s·n consecutive ids.
const (
	dim        = 64
	baseRows   = 20000 // rows every workload loads in set-up (3 segments)
	perClass   = 32    // statements per class
	topK       = 10
	loadChunk  = 8192 // rows per set-up INSERT; one WAL flush threshold, so segments are always 8192, 8192, 3616
	smallBatch = 32   // rows per INSERT of the ingest-mixed writer
	probeBatch = 1    // rows per INSERT of the write probe: its flushes stay small
	rowBytes   = 8 + 8 + 4*dim
	tableName  = "bench"
	probeTable = "probe"
)

// class is one kind of statement in the hybrid mix. The selectivities
// straddle the CBO's three regions on a 20k-row table: ≤0.2% picks
// brute force, 0.5–2% pre-filter, ≥5% post-filter. Each selectivity
// comes as a one-sided bound (attr < w) and as a two-sided window at a
// seeded offset: the planner multiplies the two bounds of a window as
// if independent, so windows show how a misestimate costs.
type class struct {
	name   string
	sel    float64 // fraction of rows the filter keeps; 0 = no filter
	window bool    // attr >= lo AND attr <= hi instead of attr < w
	rang   bool    // WHERE L2Distance(...) < r instead of a filter
}

var classes = []class{
	{name: "lt-0.1%", sel: 0.001},
	{name: "window-0.1%", sel: 0.001, window: true},
	{name: "lt-0.5%", sel: 0.005},
	{name: "window-0.5%", sel: 0.005, window: true},
	{name: "lt-2%", sel: 0.02},
	{name: "window-2%", sel: 0.02, window: true},
	{name: "lt-10%", sel: 0.10},
	{name: "window-10%", sel: 0.10, window: true},
	{name: "unfiltered"},
	{name: "range", rang: true},
}

// statement is one distinct SELECT of the mix with its exact answer.
type statement struct {
	sql   string
	class string
	truth []int64 // ground-truth ids, nearest first
}

// inputs is everything a workload sends, generated from the seed before
// any engine exists.
type inputs struct {
	vecs    *vec.Matrix // every row's vector, in id order
	queries *vec.Matrix // the statements' query vectors
	rowText []string    // "(id, attr, [v...])" per row
	stmts   []statement
	order   []int // seeded permutation of stmts, cycled by the load loops
}

// generate builds the dataset, statement mix and ground truth for a
// table that ends up holding totalRows rows.
func generate(seed int64, totalRows int) *inputs {
	ds := dataset.Generate(dataset.Spec{
		Name: "perfbench", N: totalRows, Dim: dim,
		Queries: perClass * len(classes), Seed: seed,
	})
	in := &inputs{vecs: ds.Vectors, queries: ds.Queries, rowText: make([]string, totalRows)}
	var sb strings.Builder
	for i := 0; i < totalRows; i++ {
		sb.Reset()
		fmt.Fprintf(&sb, "(%d, %d, ", i, i)
		writeVec(&sb, ds.Vectors.Row(i))
		sb.WriteByte(')')
		in.rowText[i] = sb.String()
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for ci, c := range classes {
		qs := &vec.Matrix{Dim: dim, Data: ds.Queries.Data[ci*perClass*dim : (ci+1)*perClass*dim]}
		if c.rang {
			sub := *ds
			sub.Queries = qs
			in.stmts = append(in.stmts, rangeStatements(&sub, c)...)
			continue
		}
		for qi := 0; qi < perClass; qi++ {
			// Each statement gets its own window, so no single offset
			// decides a class's cost.
			where := ""
			var keep func(int) bool
			if w := int(c.sel * float64(baseRows)); c.window {
				lo := rng.Intn(totalRows - w + 1)
				hi := lo + w - 1
				where = fmt.Sprintf("WHERE attr >= %d AND attr <= %d ", lo, hi)
				keep = func(i int) bool { return i >= lo && i <= hi }
			} else if w > 0 {
				where = fmt.Sprintf("WHERE attr < %d ", w)
				keep = func(i int) bool { return i < w }
			}
			one := *ds
			one.Queries = &vec.Matrix{Dim: dim, Data: qs.Row(qi)}
			sb.Reset()
			fmt.Fprintf(&sb, "SELECT id, dist FROM %s %sORDER BY L2Distance(v, ", tableName, where)
			writeVec(&sb, qs.Row(qi))
			fmt.Fprintf(&sb, ") AS dist LIMIT %d", topK)
			in.stmts = append(in.stmts, statement{sql: sb.String(), class: c.name, truth: one.GroundTruth(vec.L2, topK, keep)[0]})
		}
	}
	in.order = rng.Perm(len(in.stmts))
	return in
}

// rangeStatements picks each query's radius halfway between its 5th
// and 6th nearest neighbours, so exactly five rows qualify and none
// sits on the boundary.
func rangeStatements(ds *dataset.Dataset, c class) []statement {
	const inside = 5
	truth := ds.GroundTruth(vec.L2, inside+1, nil)
	var out []statement
	var sb strings.Builder
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		q := ds.Queries.Row(qi)
		d5 := math.Sqrt(float64(vec.L2Squared(q, ds.Vectors.Row(int(truth[qi][inside-1])))))
		d6 := math.Sqrt(float64(vec.L2Squared(q, ds.Vectors.Row(int(truth[qi][inside])))))
		r := strconv.FormatFloat((d5+d6)/2, 'g', -1, 32)
		sb.Reset()
		fmt.Fprintf(&sb, "SELECT id, dist FROM %s WHERE L2Distance(v, ", tableName)
		writeVec(&sb, q)
		fmt.Fprintf(&sb, ") < %s ORDER BY L2Distance(v, ", r)
		writeVec(&sb, q)
		fmt.Fprintf(&sb, ") AS dist LIMIT %d", topK)
		out = append(out, statement{sql: sb.String(), class: c.name, truth: truth[qi][:inside]})
	}
	return out
}

func writeVec(sb *strings.Builder, v []float32) {
	sb.WriteByte('[')
	for i, f := range v {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatFloat(float64(f), 'g', -1, 32))
	}
	sb.WriteByte(']')
}

func createSQL(table string) string {
	return fmt.Sprintf("CREATE TABLE %s (id UInt64, attr Int64, v Array(Float32), INDEX ann v TYPE HNSW('DIM=%d')) ORDER BY id", table, dim)
}

// insertSQL renders rows [from, to) of the input as INSERT statements
// of at most per rows each, into table.
func (in *inputs) insertSQL(table string, from, to, per int) []string {
	var out []string
	var sb strings.Builder
	for i := from; i < to; i += per {
		end := i + per
		if end > to {
			end = to
		}
		sb.Reset()
		sb.WriteString("INSERT INTO ")
		sb.WriteString(table)
		sb.WriteString(" VALUES ")
		for r := i; r < end; r++ {
			if r > i {
				sb.WriteByte(',')
			}
			sb.WriteString(in.rowText[r])
		}
		out = append(out, sb.String())
	}
	return out
}
