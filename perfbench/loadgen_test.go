package main

import (
	"sync"
	"testing"
	"time"
)

// TestOpenLoopCountsFromDueTime stalls a fake handler once and checks
// that the requests due during the stall are timed from their due
// time: they are late, their latency includes the lateness, and the
// generator's late p99 shows it.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var server sync.Mutex // the fake handler serves one request at a time
	handler := func(id int64, due time.Time) time.Time {
		server.Lock()
		if id == 100 {
			time.Sleep(stall)
		}
		server.Unlock()
		return time.Now()
	}
	samples := openLoop(2, 2000, 800*time.Millisecond, handler)
	if len(samples) != 1600 {
		t.Fatalf("%d samples, want 1600", len(samples))
	}
	for _, s := range samples {
		if s.latency() < s.lateBy {
			t.Fatalf("request %d: latency %v below its lateness %v", s.id, s.latency(), s.lateBy)
		}
	}
	// Requests due within the stall's first half go out at least a
	// quarter stall late, and wait that long in their latency too.
	for id := int64(110); id < 300; id++ {
		if s := samples[id]; s.lateBy < stall/4 || s.latency() < stall/4 {
			t.Errorf("request %d due during the stall: late by %v, latency %v", id, s.lateBy, s.latency())
		}
	}
	if late := quantile(latesMS(samples), 0.99); late < float64(stall/4)/1e6 {
		t.Errorf("late p99 %.1f ms does not show a %v stall", late, stall)
	}
}

func TestClosedLoopIssuesContiguousIDs(t *testing.T) {
	samples := closedLoop(2, 100*time.Millisecond, func(id int64, due time.Time) time.Time {
		time.Sleep(time.Millisecond)
		return time.Now()
	})
	if len(samples) < 10 {
		t.Fatalf("only %d samples", len(samples))
	}
	for i, s := range samples {
		if s.id != int64(i) || s.done.Before(s.sent) || s.lateBy < 0 {
			t.Fatalf("sample %d: %+v", i, s)
		}
	}
}
