package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"patty/internal/durable"
	"patty/internal/tuning"
)

// cliMainEnv re-executes this test binary as the patty CLI: TestMain
// dispatches to main() when the variable is set, so the kill-and-
// restart harness can SIGKILL a real patty process mid-search.
const cliMainEnv = "PATTY_CLI_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(cliMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliCommand builds an exec.Cmd running this binary as the CLI.
func cliCommand(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), cliMainEnv+"=1")
	return cmd
}

// waitForEvals polls the tuning journal at path until it records at
// least k completed evaluations. The child appends while this reads,
// so only the valid prefix counts: a torn tail is an append in flight.
func waitForEvals(t *testing.T, path string, k int, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		raw, err := os.ReadFile(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("journal poll: %v", err)
		}
		evals := 0
		_, err = durable.Decode("tunerec ", raw, func(payload []byte) error {
			var f struct{ Eval json.RawMessage }
			if err := json.Unmarshal(payload, &f); err != nil {
				return err
			}
			if f.Eval != nil {
				evals++
			}
			return nil
		})
		if errors.Is(err, durable.ErrCorrupt) {
			t.Fatalf("journal poll: %v", err)
		}
		if evals >= k {
			return
		}
		if time.Now().After(stop) {
			t.Fatalf("journal never reached %d evals", k)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTuneKillRestartConverges is the ISSUE's kill-and-restart
// harness: a checkpointed `patty tune` process is SIGKILLed mid-
// search; the resumed search must converge to the identical best
// configuration as an uninterrupted run, with no fewer explored
// configurations, without re-measuring the completed prefix.
func TestTuneKillRestartConverges(t *testing.T) {
	for _, algo := range []string{"linear", "tabu"} {
		t.Run(algo, func(t *testing.T) {
			spec := tuneSpec{Algo: algo, Budget: 120, FaultRate: 10, FaultSeed: 3}

			// Uninterrupted reference, in-process, no checkpoint.
			ref, err := runTune(context.Background(), spec)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			// Leg 1: a real CLI process, slowed so the SIGKILL lands
			// mid-search, killed after >= 5 journaled evaluations.
			ckpt := filepath.Join(t.TempDir(), "search.ckpt")
			child := cliCommand("tune", "-algo", algo, "-budget", "120",
				"-fault-rate", "10", "-fault-seed", "3",
				"-checkpoint", ckpt, "-eval-delay", "30")
			var childOut bytes.Buffer
			child.Stdout, child.Stderr = &childOut, &childOut
			if err := child.Start(); err != nil {
				t.Fatal(err)
			}
			waitForEvals(t, ckpt, 5, 30*time.Second)
			if err := child.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
				t.Fatal(err)
			}
			child.Wait()

			// Leg 2: resume in-process from the killed run's journal.
			spec.Checkpoint = ckpt
			res, err := runTune(context.Background(), spec)
			if err != nil {
				t.Fatalf("resumed run: %v\nchild output:\n%s", err, childOut.String())
			}
			if res.Resumed < 5 {
				t.Fatalf("resume replayed %d evals, want >= 5", res.Resumed)
			}
			if tuning.AssignKey(res.Best) != tuning.AssignKey(ref.Best) || res.Cost != ref.Cost {
				t.Fatalf("resumed best %v (%.0f) != uninterrupted best %v (%.0f)",
					res.Best, res.Cost, ref.Best, ref.Cost)
			}
			if res.Explored < ref.Evaluations {
				t.Fatalf("resumed run explored %d configs, uninterrupted evaluated %d",
					res.Explored, ref.Evaluations)
			}
			// The fixture faults, so the breaker quarantines, and its
			// quarantine survives the kill.
			if len(ref.Quarantined) == 0 {
				t.Fatal("reference run quarantined nothing under -fault-rate 10")
			}
			if !reflect.DeepEqual(res.Quarantined, ref.Quarantined) {
				t.Fatalf("resumed quarantine %v != uninterrupted %v", res.Quarantined, ref.Quarantined)
			}
		})
	}
}

// startServe launches `patty serve` as a child process and returns its
// base URL (parsed from the one-line stdout banner).
func startServe(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := cliCommand(append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			url := "http://" + strings.TrimSpace(line[i+len("listening on http://"):])
			// Keep draining stdout so the child never blocks on a full pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			return cmd, url
		}
	}
	cmd.Process.Kill()
	t.Fatal("serve never printed its listen address")
	return nil, ""
}

func postJob(t *testing.T, base string, body string) (string, int) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return out.ID, resp.StatusCode
}

// TestServeChaosKillRestart is the `make chaos` scenario: a tune job
// submitted to `patty serve` is SIGKILLed (the whole process) mid-
// search; a restarted server with the same checkpoint directory
// resumes the resubmitted job from its journal and finishes with the
// same best configuration as an uninterrupted run, and a SIGTERM
// drains the restarted server cleanly (exit 0).
func TestServeChaosKillRestart(t *testing.T) {
	ckptDir := t.TempDir()
	spec := tuneSpec{Algo: "tabu", Budget: 120, FaultRate: 10, FaultSeed: 3}
	ref, err := runTune(context.Background(), spec)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	const jobBody = `{"kind":"tune","algo":"tabu","budget":120,"fault_rate":10,"fault_seed":3,"eval_delay_ms":30}`
	srv1, base1 := startServe(t, "-workers", "1", "-checkpoint-dir", ckptDir)
	if _, code := postJob(t, base1, jobBody); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	ckpt := filepath.Join(ckptDir, journalName(jobRequest{Kind: "tune", tuneSpec: spec}))
	waitForEvals(t, ckpt, 3, 30*time.Second)
	if err := srv1.Process.Kill(); err != nil { // kill -9 mid-search
		t.Fatal(err)
	}
	srv1.Wait()

	// Restart with the same checkpoint dir; the resubmitted job (no
	// eval delay this time) must resume, not start over.
	srv2, base2 := startServe(t, "-workers", "1", "-checkpoint-dir", ckptDir,
		"-drain-timeout", "20s")
	id, code := postJob(t, base2, `{"kind":"tune","algo":"tabu","budget":120,"fault_rate":10,"fault_seed":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d", code)
	}
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s?wait=1", base2, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rresp, err := http.Get(fmt.Sprintf("%s/jobs/%s/result", base2, id))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Info   struct{ Status string }
		Result tuneOutcome
	}
	if err := json.NewDecoder(rresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if got.Info.Status != "done" {
		t.Fatalf("resumed job status %q", got.Info.Status)
	}
	if got.Result.Resumed < 3 {
		t.Fatalf("resumed job replayed %d evals, want >= 3", got.Result.Resumed)
	}
	if tuning.AssignKey(got.Result.Best) != tuning.AssignKey(ref.Best) || got.Result.Cost != ref.Cost {
		t.Fatalf("resumed best %v (%.0f) != uninterrupted best %v (%.0f)",
			got.Result.Best, got.Result.Cost, ref.Best, ref.Cost)
	}
	if got.Result.Explored < ref.Evaluations {
		t.Fatalf("resumed job explored %d configs, uninterrupted evaluated %d",
			got.Result.Explored, ref.Evaluations)
	}

	// Health endpoints answer while idle; SIGTERM drains cleanly.
	for _, ep := range []string{"/healthz", "/readyz", "/statusz", "/metricz"} {
		r, err := http.Get(base2 + ep)
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("%s: %v (%v)", ep, err, r)
		}
		r.Body.Close()
	}
	if err := srv2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Wait(); err != nil {
		t.Fatalf("SIGTERM drain must exit 0, got %v", err)
	}
	// Checked last, so a failure leaves no server running.
	if len(ref.Quarantined) == 0 || !reflect.DeepEqual(got.Result.Quarantined, ref.Quarantined) {
		t.Fatalf("resumed job quarantined %v, uninterrupted %v (want equal and non-empty)",
			got.Result.Quarantined, ref.Quarantined)
	}
}

// TestCmdFuzzCheckpointResume: a fuzz sweep killed mid-run (first
// SIGINT semantics, here via context) resumes from its journal and
// reports the full-sweep summary.
func TestCmdFuzzCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fuzz.ckpt")
	// Leg 1: a real CLI process interrupted by SIGINT mid-sweep.
	child := cliCommand("fuzz", "-seed", "5", "-n", "25", "-sched-every", "0",
		"-configs", "1", "-checkpoint", ckpt)
	var out bytes.Buffer
	child.Stdout, child.Stderr = &out, &out
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	child.Process.Signal(syscall.SIGINT)
	child.Wait() // exit status may be non-zero (interrupted); the journal matters

	// Leg 2: resume in-process and finish the sweep.
	res, err := capture(t, func() error {
		return cmdFuzz(context.Background(), []string{"-seed", "5", "-n", "25",
			"-sched-every", "0", "-configs", "1", "-checkpoint", ckpt})
	})
	if err != nil {
		t.Fatalf("resumed fuzz: %v\n%s\nchild:\n%s", err, res, out.String())
	}
	if !strings.Contains(res, "checked 25 programs") {
		t.Fatalf("resumed sweep summary:\n%s", res)
	}
}
