package coordinator

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMultiProcessSIGKILLSmoke is the end-to-end chaos smoke: a real
// erpi-coordinator serve process, two real
// worker processes over TCP, one of them SIGKILLed mid-exploration — and
// the job must still complete with an outcome digest byte-identical to
// the sequential in-process engine.
func TestMultiProcessSIGKILLSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test skipped in -short")
	}

	// The victim is killed a poll interval or two (a few milliseconds)
	// after it commits its first range and leases its second, so a range
	// must take far longer than that for the SIGKILL to land inside one:
	// 1024 interleavings of Yorkie-1, the slowest replay in the tree, are
	// 50-100 ms of work. (64 of Roshi-1 were under a millisecond, and the
	// kill fell between leases every other run.)
	spec := JobSpec{Bug: "Yorkie-1", Mode: "dfs", MaxInterleavings: 8192, RangeSize: 1024}
	wantDigest, wantExplored := sequentialBaseline(t, spec)

	bin := filepath.Join(t.TempDir(), "erpi-coordinator")
	build := exec.Command("go", "build", "-o", bin, "github.com/er-pi/erpi/cmd/erpi-coordinator")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	root := t.TempDir()
	serve := exec.Command(bin, "serve",
		"-journal-root", root,
		"-lease-ttl", "300ms",
		"-status-addr", "127.0.0.1:0")
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := serve.Start(); err != nil {
		t.Fatalf("start serve: %v", err)
	}
	t.Cleanup(func() {
		_ = serve.Process.Kill()
		_, _ = serve.Process.Wait()
	})

	var workerAddr, statusURL string
	sc := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	for workerAddr == "" || statusURL == "" {
		lineCh := make(chan string, 1)
		go func() {
			if sc.Scan() {
				lineCh <- sc.Text()
			} else {
				close(lineCh)
			}
		}()
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatalf("serve exited before printing its addresses")
			}
			if rest, found := strings.CutPrefix(line, "coordinator listening on "); found {
				workerAddr = rest
			}
			if rest, found := strings.CutPrefix(line, "status: "); found {
				statusURL = strings.TrimSuffix(rest, "/jobs")
			}
		case <-deadline:
			t.Fatal("timed out waiting for serve to print its addresses")
		}
	}

	startWorker := func(name string) *exec.Cmd {
		w := exec.Command(bin, "work", "-addr", workerAddr, "-name", name, "-once")
		if err := w.Start(); err != nil {
			t.Fatalf("start worker %s: %v", name, err)
		}
		return w
	}

	// Submit the job, run the victim alone until it has committed a range
	// AND provably holds a lease (it is the only worker, so a leased range
	// is its), SIGKILL it, then start the survivor to finish the job.
	body, _ := json.Marshal(spec)
	resp, err := http.Post(statusURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %s (%+v)", resp.Status, st)
	}

	victim := startWorker("victim")
	var survivor *exec.Cmd
	defer func() {
		_ = victim.Process.Kill()
		_, _ = victim.Process.Wait()
		if survivor != nil {
			_ = survivor.Process.Kill()
			_ = survivor.Wait()
		}
	}()

	getStatus := func() JobStatus {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%s", statusURL, st.ID))
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		defer resp.Body.Close()
		var cur JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatalf("decode poll: %v", err)
		}
		return cur
	}
	killDeadline := time.Now().Add(30 * time.Second)
	for {
		cur := getStatus()
		if (cur.Explored >= spec.RangeSize && cur.RangesLeased >= 1) || cur.State != StateRunning {
			break
		}
		if time.Now().After(killDeadline) {
			t.Fatalf("no progress before kill: %+v", cur)
		}
		time.Sleep(2 * time.Millisecond)
	}
	killedMidRun := getStatus().State == StateRunning
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL victim: %v", err)
	}
	_, _ = victim.Process.Wait()
	survivor = startWorker("survivor")

	resp, err = http.Get(fmt.Sprintf("%s/jobs/%s?wait=60", statusURL, st.ID))
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	var final JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatalf("decode final: %v", err)
	}
	resp.Body.Close()

	if final.State != StateDone {
		t.Fatalf("final state = %s (%+v)", final.State, final)
	}
	if final.Explored != wantExplored {
		t.Fatalf("explored = %d, want %d", final.Explored, wantExplored)
	}
	if final.Digest != wantDigest {
		t.Fatalf("digest mismatch after SIGKILL:\n distributed %s\n sequential  %s", final.Digest, wantDigest)
	}
	assertUniqueKeys(t, journalKeys(t, filepath.Join(root, final.ID)), wantExplored)
	// The kill must have interrupted a leased range, or the test showed
	// nothing about orphans.
	if !killedMidRun || final.Requeues < 1 {
		t.Fatalf("the SIGKILL orphaned no range (requeues=%d, job still running at the kill: %v)", final.Requeues, killedMidRun)
	}
}
