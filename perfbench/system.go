package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"blendhouse/internal/batch"
	"blendhouse/internal/cache"
	"blendhouse/internal/coord"
	"blendhouse/internal/core"
	"blendhouse/internal/lsm"
	"blendhouse/internal/server"
	"blendhouse/internal/storage"
	"blendhouse/pkg/client"
)

// remoteConfig is the shared-storage model every engine sits on: 1 ms
// per operation (the measured floor of time.Sleep on the reference box,
// so a smaller figure would be charged as 1 ms anyway) and 1 GB/s.
var remoteConfig = storage.RemoteConfig{OpLatency: time.Millisecond, BytesPerSecond: 1 << 30}

// flushErrors counts background WAL flush failures across every engine
// of the run; any is a failed operation.
var flushErrors atomic.Int64

// serveConfig is the engine configuration `blendhouse serve` builds
// with its default flags (openEngine in cmd/blendhouse): default column
// cache, semantic fraction 0.5, AutoIndex, WAL with default thresholds,
// 4-attempt storage retries, adaptive batching, every statement traced
// into the ring, and no background compaction.
func serveConfig(store storage.BlobStore) core.Config {
	cc := cache.DefaultColumnCacheConfig()
	return core.Config{
		Store:            store,
		ColumnCache:      &cc,
		SemanticFraction: 0.5,
		AutoIndex:        true,
		WAL: &lsm.WALConfig{OnError: func(err error) {
			flushErrors.Add(1)
			fmt.Fprintln(stderr, "wal flush:", err)
		}},
		Retry:       &storage.RetryConfig{MaxAttempts: 4},
		TraceSample: 1,
		Batch:       &batch.Config{Adaptive: true},
	}
}

// node is one engine on its own remote store, served over HTTP.
type node struct {
	backing *storage.MemStore
	store   *storage.RemoteStore
	engine  *core.Engine
	srv     *server.Server
}

func newStore() (*storage.MemStore, *storage.RemoteStore) {
	backing := storage.NewMemStore()
	return backing, storage.NewRemoteStore(backing, remoteConfig)
}

// startNode opens an engine over store and serves it on a loopback
// port with serve's default admission.
func startNode(backing *storage.MemStore, store *storage.RemoteStore) (*node, error) {
	e, err := core.New(serveConfig(store))
	if err != nil {
		return nil, fmt.Errorf("opening engine: %w", err)
	}
	srv, err := server.New(server.Config{Engine: e, Addr: "127.0.0.1:0"})
	if err == nil {
		err = srv.Start()
	}
	if err != nil {
		e.Close()
		return nil, fmt.Errorf("starting server: %w", err)
	}
	return &node{backing: backing, store: store, engine: e, srv: srv}, nil
}

func (n *node) close() {
	_ = n.srv.Drain()
	n.engine.Close()
}

// conn is a pkg/client handle capped at a fixed number of HTTP
// connections, with client-side retries off so a failure is counted
// as one instead of turning into a slow success.
type conn struct {
	*client.Client
	tr *http.Transport
}

func dial(addr string, conns int) (*conn, error) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	c, err := client.New(client.Config{
		BaseURL:    "http://" + addr,
		HTTPClient: &http.Client{Transport: tr},
		MaxRetries: -1,
	})
	if err != nil {
		return nil, err
	}
	return &conn{Client: c, tr: tr}, nil
}

func (c *conn) close() {
	c.Client.Close()
	c.tr.CloseIdleConnections()
}

// system is one running deployment: a single node, or three shard
// nodes behind a coordinator and its front server.
type system struct {
	nodes []*node
	co    *coord.Coordinator
	front *server.Server
	cli   *conn // the front door, batching on, nproc connections
}

// restart replaces a single-node system's engine with a fresh one over
// the same store, as restarting the server would.
func (s *system) restart() error {
	old := s.nodes[0]
	s.cli.close()
	old.close()
	n, err := startNode(old.backing, old.store)
	if err != nil {
		return err
	}
	s.nodes[0] = n
	s.cli, err = dial(n.srv.Addr(), nproc)
	return err
}

// frontAddr is where clients connect.
func (s *system) frontAddr() string {
	if s.front != nil {
		return s.front.Addr()
	}
	return s.nodes[0].srv.Addr()
}

// startSystem brings up shards nodes (1 = single node; more = a
// coordinator with replicas=1 in front of them).
func startSystem(shards int) (*system, error) {
	s := &system{}
	var addrs []string
	for i := 0; i < shards; i++ {
		n, err := startNode(newStore())
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		addrs = append(addrs, n.srv.Addr())
	}
	if shards > 1 {
		co, err := coord.New(coord.Config{Shards: addrs, Replicas: 1, TraceSample: 1})
		if err != nil {
			s.close()
			return nil, err
		}
		s.co = co
		front, err := server.New(server.Config{Backend: co, Addr: "127.0.0.1:0"})
		if err == nil {
			err = front.Start()
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("starting coordinator server: %w", err)
		}
		s.front = front
	}
	cli, err := dial(s.frontAddr(), nproc)
	if err != nil {
		s.close()
		return nil, err
	}
	s.cli = cli
	return s, nil
}

func (s *system) close() {
	if s.cli != nil {
		s.cli.close()
	}
	if s.front != nil {
		_ = s.front.Drain()
	}
	if s.co != nil {
		s.co.Close()
	}
	for _, n := range s.nodes {
		n.close()
	}
}

// flush forces every node's memtable into segments.
func (s *system) flush(table string) error {
	for _, n := range s.nodes {
		t := n.engine.Table(table)
		if t == nil {
			return fmt.Errorf("table %s missing on a node", table)
		}
		if err := t.FlushWAL(); err != nil {
			return fmt.Errorf("flushing %s: %w", table, err)
		}
	}
	return nil
}

// stats sums the remote-store counters of every node.
func (s *system) stats() storage.Stats {
	var out storage.Stats
	for _, n := range s.nodes {
		st := n.store.Snapshot()
		out.Gets += st.Gets
		out.Puts += st.Puts
		out.BytesRead += st.BytesRead
		out.BytesWritten += st.BytesWritten
	}
	return out
}

// setupTiming splits set-up into the statement phase and the final
// flush.
type setupTiming struct {
	total, ingest, flush time.Duration
}

// setUp builds a system from empty stores and loads the base rows with
// the given INSERTs: the time from nothing to queryable (CREATE, the
// INSERTs through the client, FlushWAL).
func setUp(ctx context.Context, shards int, inserts []string) (*system, setupTiming, error) {
	var st setupTiming
	start := time.Now()
	s, err := startSystem(shards)
	if err != nil {
		return nil, st, err
	}
	if _, err := s.cli.Exec(ctx, createSQL(tableName)); err != nil {
		s.close()
		return nil, st, fmt.Errorf("create: %w", err)
	}
	for _, stmt := range inserts {
		if _, err := s.cli.Exec(ctx, stmt); err != nil {
			s.close()
			return nil, st, fmt.Errorf("set-up insert: %w", err)
		}
	}
	st.ingest = time.Since(start)
	fl := time.Now()
	if err := s.flush(tableName); err != nil {
		s.close()
		return nil, st, err
	}
	st.flush = time.Since(fl)
	st.total = time.Since(start)
	return s, st, nil
}

// liveHeapMB is the live heap after a full collection. The second
// collection empties the sync.Pool victim caches the first one leaves.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// storedBytes sums the blobs under a table's prefix in the backing
// stores (what the remote store holds once the WAL is truncated).
func storedBytes(backings []*storage.MemStore, table string) (int64, error) {
	var total int64
	for _, b := range backings {
		keys, err := b.List("tables/" + table + "/")
		if err != nil {
			return 0, err
		}
		for _, k := range keys {
			if !strings.HasPrefix(k, "tables/"+table+"/") {
				continue
			}
			n, err := b.Size(k)
			if err != nil {
				return 0, err
			}
			total += n
		}
	}
	return total, nil
}

// reopen times core.New over each populated store, reps times, and
// closes every engine it opens. The stores must have no live engine.
func reopen(stores []*storage.RemoteStore, reps int) ([]time.Duration, error) {
	var out []time.Duration
	for r := 0; r < reps; r++ {
		for _, st := range stores {
			t0 := time.Now()
			e, err := core.New(serveConfig(st))
			if err != nil {
				return nil, fmt.Errorf("reopening: %w", err)
			}
			out = append(out, time.Since(t0))
			e.Close()
		}
	}
	return out, nil
}
