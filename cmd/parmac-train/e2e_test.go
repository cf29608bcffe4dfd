package main

import (
	"bufio"
	"bytes"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSIGKILLWorkerMidTraining is the end-to-end fault drill: real OS
// processes over real sockets, one worker killed with SIGKILL (no signal
// handler runs, no bye frame is sent), and the coordinator must still finish
// training on the survivor and report the death in its run output.
func TestSIGKILLWorkerMidTraining(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("relies on unix process kill semantics")
	}
	if testing.Short() {
		t.Skip("builds and drives real processes")
	}

	bin := filepath.Join(t.TempDir(), "parmac-train")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Flags every process must agree on: they derive the dataset and shards
	// deterministically from these.
	const p = 2
	shared := []string{
		"-p", strconv.Itoa(p), "-n", "60", "-d", "6", "-clusters", "3",
		"-bits", "4", "-seed", "7", "-e", "1", "-cores", "1", "-queries", "4",
	}

	coordArgs := append([]string{
		"-coordinator", "-spawn=false", "-listen", "127.0.0.1:0",
		"-iters", "4", "-rescue-timeout", "5s",
	}, shared...)
	coord := exec.Command(bin, coordArgs...)
	var coordErr bytes.Buffer
	coord.Stderr = &coordErr
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// Stream coordinator stdout: the rendezvous address arrives first, then
	// one row per iteration.
	lines := make(chan string, 64)
	var coordOut bytes.Buffer
	var outMu sync.Mutex
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			outMu.Lock()
			coordOut.WriteString(sc.Text() + "\n")
			outMu.Unlock()
			lines <- sc.Text()
		}
		close(lines)
	}()
	waitLine := func(what string, match func(string) bool) string {
		deadline := time.After(2 * time.Minute)
		for {
			select {
			case ln, ok := <-lines:
				if !ok {
					t.Fatalf("coordinator exited before %s\nstdout:\n%s\nstderr:\n%s",
						what, snapshot(&outMu, &coordOut), coordErr.String())
				}
				if match(ln) {
					return ln
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %s\nstdout:\n%s\nstderr:\n%s",
					what, snapshot(&outMu, &coordOut), coordErr.String())
			}
		}
	}

	addrLine := waitLine("rendezvous address", func(s string) bool {
		return strings.Contains(s, "rendezvous at ")
	})
	addr := strings.TrimSuffix(strings.Fields(addrLine)[3], ",")

	workers := make([]*exec.Cmd, p)
	for r := 0; r < p; r++ {
		args := append([]string{
			"-worker", "-connect", addr, "-rank", strconv.Itoa(r),
		}, shared...)
		workers[r] = exec.Command(bin, args...)
		workers[r].Stdout = io.Discard
		workers[r].Stderr = io.Discard
		if err := workers[r].Start(); err != nil {
			t.Fatal(err)
		}
		defer workers[r].Process.Kill()
	}

	// Let the cluster make real progress, then kill rank 1 dead — SIGKILL
	// gives it no chance to announce anything.
	waitLine("first iteration row", func(s string) bool {
		return len(strings.Fields(s)) > 0 && strings.Fields(s)[0] == "0"
	})
	if err := workers[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}

	// Read stdout to EOF before Wait: Wait closes the pipe, so a line the
	// scanner has not read yet (the final "retrieval precision") would be
	// lost.
	deadline := time.After(2 * time.Minute)
	hung := func() {
		t.Fatalf("coordinator hung after worker SIGKILL\nstdout:\n%s\nstderr:\n%s",
			snapshot(&outMu, &coordOut), coordErr.String())
	}
	for open := true; open; {
		select {
		case _, open = <-lines:
		case <-deadline:
			hung()
		}
	}
	done := make(chan error, 1)
	go func() { done <- coord.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator failed after worker SIGKILL: %v\nstdout:\n%s\nstderr:\n%s",
				err, snapshot(&outMu, &coordOut), coordErr.String())
		}
	case <-deadline:
		hung()
	}

	out := snapshot(&outMu, &coordOut)
	if !strings.Contains(coordErr.String(), "died (unannounced)") {
		t.Fatalf("coordinator did not report the unannounced death\nstdout:\n%s\nstderr:\n%s",
			out, coordErr.String())
	}
	if !strings.Contains(out, "retrieval precision") {
		t.Fatalf("training did not run to completion on the survivor\nstdout:\n%s", out)
	}

	// The survivor worker drains the shutdown and exits on its own.
	survivor := make(chan error, 1)
	go func() { survivor <- workers[0].Wait() }()
	select {
	case err := <-survivor:
		if err != nil {
			t.Fatalf("surviving worker exited with error: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("surviving worker did not exit after shutdown")
	}
}

func snapshot(mu *sync.Mutex, buf *bytes.Buffer) string {
	mu.Lock()
	defer mu.Unlock()
	return buf.String()
}
