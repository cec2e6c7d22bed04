package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loadResult is what one load phase observed. Every request counts as
// attempted; a request that errors (refused, shed, timed out, failed)
// counts as failed and contributes no latency sample.
type loadResult struct {
	lats      []time.Duration // successful requests only
	done      []time.Duration // closed loop: completion times since the start
	late      []time.Duration // open loop: how late the generator sent each request
	attempted int64
	failed    int64
	elapsed   time.Duration
}

// add appends another phase, its completion times shifted past this
// one's elapsed time.
func (r *loadResult) add(o loadResult) {
	r.lats = append(r.lats, o.lats...)
	r.late = append(r.late, o.late...)
	for _, d := range o.done {
		r.done = append(r.done, r.elapsed+d)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.elapsed += o.elapsed
}

// rate is completed requests per second of the phase.
func (r loadResult) rate() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(len(r.lats)) / r.elapsed.Seconds()
}

// rateWindow is the slice of a closed loop whose completion counts
// windowRate averages.
const rateWindow = 250 * time.Millisecond

// windowRate is the completion rate over the closed loop's whole
// rateWindow slices, averaged over the middle half of the slices
// ranked by count: a burst of interference from outside the benchmark
// moves a slice out of the middle half, not the figure.
func (r loadResult) windowRate() float64 {
	n := int(r.elapsed / rateWindow)
	if n < 4 {
		return r.rate()
	}
	counts := make([]float64, n)
	for _, d := range r.done {
		if i := int(d / rateWindow); i < n {
			counts[i]++
		}
	}
	sort.Float64s(counts)
	return mean(counts[n/4:n-n/4]) / rateWindow.Seconds()
}

// closedLoop runs clients goroutines that each send their next request
// as soon as the previous one returns, until dur has passed. send
// receives a global sequence number.
func closedLoop(clients int, dur time.Duration, send func(seq int) error) loadResult {
	var (
		mu  sync.Mutex
		res loadResult
		seq atomic.Int64
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats, done []time.Duration
			var attempted, failed int64
			for time.Now().Before(deadline) {
				i := int(seq.Add(1) - 1)
				t0 := time.Now()
				err := send(i)
				attempted++
				if err != nil {
					failed++
					continue
				}
				lats = append(lats, time.Since(t0))
				done = append(done, time.Since(start))
			}
			mu.Lock()
			res.lats = append(res.lats, lats...)
			res.done = append(res.done, done...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// openLoop sends count requests on a fixed schedule (request i is due
// at start + i/rate) through workers goroutines. Latency is timed from
// the due time, so a stall also charges the wait it imposes on the
// requests queued behind it; late records how far behind schedule the
// generator handed each request over.
func openLoop(rate float64, count, workers int, send func(seq int) error) loadResult {
	type job struct {
		seq int
		due time.Time
	}
	jobs := make(chan job, count) // sized to the number of sends: the generator never blocks
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats []time.Duration
			var attempted, failed int64
			for j := range jobs {
				err := send(j.seq)
				attempted++
				if err != nil {
					failed++
					continue
				}
				lats = append(lats, time.Since(j.due))
			}
			mu.Lock()
			res.lats = append(res.lats, lats...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}()
	}
	late := make([]time.Duration, 0, count)
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < count; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, time.Since(due))
		jobs <- job{seq: i, due: due}
	}
	close(jobs)
	wg.Wait()
	res.elapsed = time.Since(start)
	res.late = late
	return res
}

// serialLoop sends count requests back to back from one goroutine.
func serialLoop(count int, send func(seq int) error) loadResult {
	return pacedLoop(count, 0, send)
}

// pacedLoop sends count requests from one goroutine, pausing think
// after each reply; the pause is not part of any request's latency.
func pacedLoop(count int, think time.Duration, send func(seq int) error) loadResult {
	var res loadResult
	start := time.Now()
	for i := 0; i < count; i++ {
		if i > 0 && think > 0 {
			time.Sleep(think)
		}
		t0 := time.Now()
		err := send(i)
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		res.lats = append(res.lats, time.Since(t0))
	}
	res.elapsed = time.Since(start)
	return res
}
