package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one op the load generator issued. In an open loop due is
// the op's scheduled send time; in a closed loop it is the send time.
type sample struct {
	id              int64
	due, sent, done time.Time
	// lateBy is how far behind schedule the op went out: sent - due in
	// an open loop; in a closed loop, the client's own time between its
	// previous answer and this send.
	lateBy time.Duration
}

// latency counts from the due time, so a stall that delays later sends
// shows in their latencies rather than vanishing from the record.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.latency().Nanoseconds()) / 1e6
	}
	return out
}

func latesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lateBy.Nanoseconds()) / 1e6
	}
	return out
}

// closedLoop runs clients goroutines that each issue op after op,
// drawing ids from one shared sequence, until d has passed; ops in
// flight at the deadline complete and count. do returns when the op's
// answer arrived; whatever it does afterwards (checking the answer)
// counts as generator time, not latency. Samples come back in id
// order, so ids 0..len-1 were all issued.
func closedLoop(clients int, d time.Duration, do func(id int64, due time.Time) time.Time) []sample {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			free := time.Now()
			for {
				due := time.Now()
				if !due.Before(deadline) {
					return
				}
				id := next.Add(1) - 1
				done := do(id, due)
				s := sample{id: id, due: due, sent: due, done: done, lateBy: due.Sub(free)}
				free = done
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// openLoop schedules op i at start + i/rate for every i due within d
// and sends each from whichever of the senders is free, sleeping until
// the op is due. When every sender is busy the next op goes out late;
// its latency still counts from the due time. do returns when the
// op's answer arrived.
func openLoop(senders int, rate float64, d time.Duration, do func(id int64, due time.Time) time.Time) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	n := int64(d / interval)
	start := time.Now()
	var next atomic.Int64
	out := make([]sample, n)
	var wg sync.WaitGroup
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func() {
			defer wg.Done()
			for {
				id := next.Add(1) - 1
				if id >= n {
					return
				}
				due := start.Add(time.Duration(id) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				done := do(id, due)
				out[id] = sample{id: id, due: due, sent: sent, done: done, lateBy: sent.Sub(due)}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoopOver runs do over ids from workers goroutines, each taking
// the next id as soon as its previous one is done, and returns when all
// are done.
func closedLoopOver(workers int, ids []int64, do func(id int64)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(ids)); i = next.Add(1) - 1 {
				do(ids[i])
			}
		}()
	}
	wg.Wait()
}
