package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestObsE2E is the cross-process tracing end-to-end check behind
// `make check-obs-e2e`: it builds rtiserver and adffed, runs a real
// federation (one sender, one receiver) over a random loopback port with
// tracing on, merges the three per-process traces with this package's
// run(), and asserts that at least 99% of LU origin spans link to a
// server delivery span and that the per-op latency report is present.
//
// It only runs when ADF_OBS_E2E=1 (the make target sets it) so the
// plain unit-test suite stays hermetic and fast. When ADFOBS_E2E_OUT is
// set the merged trace is written there for CI artifact upload.
func TestObsE2E(t *testing.T) {
	if os.Getenv("ADF_OBS_E2E") != "1" {
		t.Skip("set ADF_OBS_E2E=1 (or run `make check-obs-e2e`) to run the cross-process tracing e2e test")
	}

	dir := t.TempDir()
	build := func(name, pkg string) string {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = "../.." // module root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
		return bin
	}
	rtiserver := build("rtiserver", "./cmd/rtiserver")
	adffed := build("adffed", "./cmd/adffed")

	rtiTrace := filepath.Join(dir, "rti.json")
	rtiEvents := filepath.Join(dir, "rti.ndjson")
	rti := exec.Command(rtiserver, "-addr", "127.0.0.1:0",
		"-obs-trace", rtiTrace, "-obs-events", rtiEvents)
	rtiErr, err := rti.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := rti.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rti.Process.Kill() }()

	// rtiserver logs "listening on 127.0.0.1:<port>" once bound.
	addr, err := scanFor(rtiErr, "listening on ", 10*time.Second)
	if err != nil {
		t.Fatalf("rtiserver did not report its address: %v", err)
	}

	const steps, nodes = 30, 5
	recvTrace := filepath.Join(dir, "recv.json")
	recvEvents := filepath.Join(dir, "recv.ndjson")
	recv := exec.Command(adffed, "-addr", addr, "-role", "recv",
		"-steps", fmt.Sprint(steps),
		"-obs-trace", recvTrace, "-obs-events", recvEvents)
	recvOut, err := recv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	recv.Stderr = os.Stderr
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = recv.Process.Kill() }()

	// The receiver must be joined and subscribed before the sender
	// registers the sync point, or it would not be a participant.
	if _, err := scanFor(recvOut, "adffed: ready", 10*time.Second); err != nil {
		t.Fatalf("receiver never became ready: %v", err)
	}

	sendTrace := filepath.Join(dir, "send.json")
	sendEvents := filepath.Join(dir, "send.ndjson")
	send := exec.Command(adffed, "-addr", addr, "-role", "send",
		"-steps", fmt.Sprint(steps), "-nodes", fmt.Sprint(nodes),
		"-obs-trace", sendTrace, "-obs-events", sendEvents)
	if out, err := send.CombinedOutput(); err != nil {
		t.Fatalf("sender: %v\n%s", err, out)
	}
	if err := waitFor(recv, 30*time.Second); err != nil {
		t.Fatalf("receiver: %v", err)
	}
	// Graceful shutdown flushes the server's trace file.
	if err := rti.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := waitFor(rti, 10*time.Second); err != nil {
		t.Fatalf("rtiserver: %v", err)
	}

	merged := os.Getenv("ADFOBS_E2E_OUT")
	if merged == "" {
		merged = filepath.Join(dir, "merged.json")
	}
	var report bytes.Buffer
	err = run(&report, []string{
		"-out", merged,
		"-require-links", "0.99",
		rtiTrace + ":" + rtiEvents,
		sendTrace + ":" + sendEvents,
		recvTrace + ":" + recvEvents,
	})
	t.Logf("adfobs report:\n%s", report.String())
	if err != nil {
		t.Fatalf("adfobs: %v", err)
	}
	out := report.String()
	wantOrigins := fmt.Sprintf("%d LU origins", steps*nodes)
	for _, want := range []string{wantOrigins, "interaction", "advance", "links 100.0% >= 99.0%: ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if fi, err := os.Stat(merged); err != nil || fi.Size() == 0 {
		t.Errorf("merged trace %s missing or empty: %v", merged, err)
	}
}

// scanFor reads lines until one contains marker, returning the part of
// the line after the marker.
func scanFor(r interface{ Read([]byte) (int, error) }, marker string, timeout time.Duration) (string, error) {
	type result struct {
		rest string
		err  error
	}
	ch := make(chan result, 1)
	// The scanner goroutine exits when the pipe closes with the process; the buffered send never blocks.
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 {
				ch <- result{rest: strings.TrimSpace(line[i+len(marker):])}
				return
			}
		}
		ch <- result{err: fmt.Errorf("marker %q not seen (scan err: %v)", marker, sc.Err())}
	}()
	select {
	case res := <-ch:
		return res.rest, res.err
	case <-time.After(timeout):
		return "", fmt.Errorf("timed out after %v waiting for %q", timeout, marker)
	}
}

// waitFor waits for a started process to exit within the timeout.
func waitFor(cmd *exec.Cmd, timeout time.Duration) error {
	done := make(chan error, 1)
	// Wait returns when the process exits; the buffered send never blocks.
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		return fmt.Errorf("timed out after %v", timeout)
	}
}
