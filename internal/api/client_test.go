package api

// Client resilience tests: backoff honoring Retry-After, the retry
// budget, hedged queries cancelling the loser, non-idempotent mutate
// retry rules, and loud body-limit detection.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// queryServer builds a test daemon whose /v1/query handler is h.
func queryServer(t *testing.T, h http.HandlerFunc) *Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", h)
	mux.HandleFunc("/v1/mutate", h)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.BaseBackoff = time.Millisecond
	return c
}

func writeResp(w http.ResponseWriter, status int, resp any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// TestRetryRecoversFromTransient: a couple of 500s followed by a 200
// succeed transparently under MaxRetries.
func TestRetryRecoversFromTransient(t *testing.T) {
	var calls atomic.Int64
	c := queryServer(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeResp(w, http.StatusInternalServerError, &Response{Error: "transient"})
			return
		}
		writeResp(w, http.StatusOK, &Response{Op: OpSLEM, SLEM: &SLEMResult{Mu: 0.5}})
	})
	c.MaxRetries = 4
	resp, err := c.Query(context.Background(), Request{Op: OpSLEM, Graph: "g"})
	if err != nil || resp.SLEM == nil {
		t.Fatalf("resp=%+v err=%v, want a recovered success", resp, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("calls = %d, want 3", got)
	}
	if m := c.Metrics(); m.Retries != 2 {
		t.Fatalf("metrics.Retries = %d, want 2", m.Retries)
	}
}

// TestRetryHonorsRetryAfter: the server's Retry-After hint stretches
// the wait beyond the (tiny) computed backoff.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	c := queryServer(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			writeResp(w, http.StatusTooManyRequests, &Response{Error: "shed"})
			return
		}
		writeResp(w, http.StatusOK, &Response{Op: OpSLEM})
	})
	c.MaxRetries = 1
	t0 := time.Now()
	if _, err := c.Query(context.Background(), Request{Op: OpSLEM, Graph: "g"}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed < 900*time.Millisecond {
		t.Fatalf("retry fired after %v, want >= ~1s per the Retry-After hint", elapsed)
	}
	if m := c.Metrics(); m.Sheds != 1 || m.Retries != 1 {
		t.Fatalf("metrics = %+v, want 1 shed / 1 retry", m)
	}
}

// TestNonRetryableStatusFailsFast: a 400 is the caller's bug, not a
// transient — no retries, and the decodable envelope still comes back.
func TestNonRetryableStatusFailsFast(t *testing.T) {
	var calls atomic.Int64
	c := queryServer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeResp(w, http.StatusBadRequest, &Response{Error: "bad op"})
	})
	c.MaxRetries = 5
	resp, err := c.Query(context.Background(), Request{Op: OpSLEM, Graph: "g"})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("err = %v, want a 400", err)
	}
	if resp == nil || resp.Error != "bad op" {
		t.Fatalf("error envelope lost in the retry path: %+v", resp)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (400 is not retryable)", got)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != 400 {
		t.Fatalf("err %v is not a StatusError with code 400", err)
	}
}

// TestMutateRetriesOnlyNotApplied: mutations retry 429 (provably not
// applied) but never a 500 (the batch may have landed).
func TestMutateRetriesOnlyNotApplied(t *testing.T) {
	var calls atomic.Int64
	c := queryServer(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			writeResp(w, http.StatusTooManyRequests, &MutateResponse{Error: "shed"})
			return
		}
		writeResp(w, http.StatusOK, &MutateResponse{Graph: "g", Inserted: 1})
	})
	c.MaxRetries = 3
	resp, err := c.Mutate(context.Background(), MutateRequest{Graph: "g", Grow: 1})
	if err != nil || resp.Inserted != 1 {
		t.Fatalf("resp=%+v err=%v, want a retried success", resp, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("calls = %d, want 2", got)
	}

	calls.Store(0)
	c2 := queryServer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeResp(w, http.StatusInternalServerError, &MutateResponse{Error: "boom"})
	})
	c2.MaxRetries = 3
	if _, err := c2.Mutate(context.Background(), MutateRequest{Graph: "g", Grow: 1}); err == nil {
		t.Fatal("500 mutate did not fail")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (a 5xx mutate must not be re-applied)", got)
	}
}

// TestHedgeCancelsLoser: a stalled primary loses to the hedge, whose
// answer is returned while the primary's request context is
// cancelled.
func TestHedgeCancelsLoser(t *testing.T) {
	var calls atomic.Int64
	primaryCancelled := make(chan struct{})
	c := queryServer(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// The primary: stall until the client gives up on us. The
			// body must be drained first — the server only propagates a
			// client disconnect into r.Context() once it owns the
			// connection again.
			io.Copy(io.Discard, r.Body) //nolint:errcheck
			<-r.Context().Done()
			close(primaryCancelled)
			return
		}
		writeResp(w, http.StatusOK, &Response{Op: OpSLEM, SLEM: &SLEMResult{Mu: 0.25}})
	})
	c.HedgeDelay = 30 * time.Millisecond
	resp, err := c.Query(context.Background(), Request{Op: OpSLEM, Graph: "g"})
	if err != nil || resp.SLEM == nil || resp.SLEM.Mu != 0.25 {
		t.Fatalf("resp=%+v err=%v, want the hedge's answer", resp, err)
	}
	if m := c.Metrics(); m.Hedges != 1 || m.HedgeWins != 1 {
		t.Fatalf("metrics = %+v, want 1 hedge / 1 win", m)
	}
	select {
	case <-primaryCancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("losing primary was never cancelled")
	}
}

// TestHedgeNotUsedWhenFastEnough: a prompt answer never launches the
// duplicate.
func TestHedgeNotUsedWhenFastEnough(t *testing.T) {
	var calls atomic.Int64
	c := queryServer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeResp(w, http.StatusOK, &Response{Op: OpSLEM})
	})
	c.HedgeDelay = 5 * time.Second
	if _, err := c.Query(context.Background(), Request{Op: OpSLEM, Graph: "g"}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (no hedge for a fast answer)", got)
	}
	if m := c.Metrics(); m.Hedges != 0 {
		t.Fatalf("metrics.Hedges = %d, want 0", m.Hedges)
	}
}

// TestBodyLimitIsLoud: a response larger than the client limit is an
// explicit error naming the limit, never a silently truncated decode.
func TestBodyLimitIsLoud(t *testing.T) {
	c := queryServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"op":"slem","error":"`)) //nolint:errcheck
		pad := strings.Repeat("x", 4096)
		w.Write([]byte(pad + `"}`)) //nolint:errcheck
	})
	c.MaxQueryBody = 1024
	_, err := c.Query(context.Background(), Request{Op: OpSLEM, Graph: "g"})
	if err == nil || !strings.Contains(err.Error(), "1024-byte client limit") {
		t.Fatalf("err = %v, want a loud limit violation", err)
	}
}

// TestParseRetryAfter covers both header forms.
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Fatalf("delta-seconds: %v, want 3s", d)
	}
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d < 80*time.Second || d > 91*time.Second {
		t.Fatalf("http-date: %v, want ~90s", d)
	}
	for _, h := range []string{"", "soon", "-4"} {
		if d := parseRetryAfter(h); d != 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want 0", h, d)
		}
	}
}
