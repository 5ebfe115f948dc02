package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for paperfigs itself: with
// PAPERFIGS_AS_MAIN set it runs the command on its arguments, so the
// tests below drive the real flag path in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("PAPERFIGS_AS_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// paperfigs runs the command with args and returns its stderr and
// exit error.
func paperfigs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PAPERFIGS_AS_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stderr.String(), err
}

// TestInjectFlagFaultsThenRealResult: -inject arms the faults spec on
// every attempt, so a capped panic and a capped error take the first
// two attempts and the third writes the bytes of an uninjected run.
func TestInjectFlagFaultsThenRealResult(t *testing.T) {
	base := []string{"-q", "-only", "T1", "-scale", "0.001"}
	clean, injected := t.TempDir(), t.TempDir()
	if stderr, err := paperfigs(t, append(base, "-csv", clean)...); err != nil {
		t.Fatalf("clean run: %v\n%s", err, stderr)
	}
	stderr, err := paperfigs(t, append(base, "-csv", injected,
		"-retries", "2", "-inject", "seed=7,panic=1:1,error=1:1")...)
	if err != nil {
		t.Fatalf("injected run: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "fault injection armed") || !strings.Contains(stderr, "ok (attempt 3)") {
		t.Errorf("stderr does not show the armed spec and T1 passing on attempt 3:\n%s", stderr)
	}
	want, err := os.ReadFile(filepath.Join(clean, "T1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(injected, "T1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("injected T1.csv differs from the clean run:\n%s\nwant:\n%s", got, want)
	}
}
