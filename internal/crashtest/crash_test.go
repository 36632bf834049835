//go:build faultpoint

package crashtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/simtest"
)

// crashSpec is the campaign every scenario interrupts: four jobs, so a
// crash can land with some completed, some leased and some pending.
const crashSpec = `{"workloads":["2W1"],"policies":["ICOUNT","MFLUSH"],"seeds":[1,2],"cycles":2000}`

const crashJobs = 4

// formats are the aggregate renderings compared byte-for-byte.
var formats = []string{"json", "csv", "table", "rows"}

// ---- binaries -------------------------------------------------------

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// binaries builds mflushd and mflushworker once, with fault injection
// compiled in, and returns their paths.
func binaries(t *testing.T) (daemon, worker string) {
	t.Helper()
	buildOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			buildErr = err
			return
		}
		buildDir, err = os.MkdirTemp("", "crashtest-bin-")
		if err != nil {
			buildErr = err
			return
		}
		for _, pkg := range []string{"mflushd", "mflushworker"} {
			cmd := exec.Command("go", "build", "-tags", "faultpoint",
				"-o", filepath.Join(buildDir, pkg), "./cmd/"+pkg)
			cmd.Dir = root
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("build %s: %v\n%s", pkg, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(buildDir, "mflushd"), filepath.Join(buildDir, "mflushworker")
}

// ---- process harness ------------------------------------------------

// proc is one child process with its captured log and exit status.
type proc struct {
	cmd    *exec.Cmd
	mu     sync.Mutex
	lines  []string
	addrCh chan string // daemon only: the parsed "serving on" address
	exited chan error
}

// start launches bin with args, the given extra environment, and a log
// scanner that watches for the daemon's "serving on HOST:PORT" line.
func start(t *testing.T, bin string, env []string, args ...string) *proc {
	t.Helper()
	p := &proc{
		cmd:    exec.Command(bin, args...),
		addrCh: make(chan string, 1),
		exited: make(chan error, 1),
	}
	p.cmd.Env = append(os.Environ(), env...)
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stdout = io.Discard
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.lines = append(p.lines, line)
			p.mu.Unlock()
			if i := strings.Index(line, "serving on "); i >= 0 {
				addr := line[i+len("serving on "):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				select {
				case p.addrCh <- addr:
				default:
				}
			}
		}
		p.exited <- p.cmd.Wait()
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		select {
		case <-p.exited:
		case <-time.After(10 * time.Second):
		}
	})
	return p
}

// log returns everything the process has written so far.
func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// serving waits for the daemon's listen address.
func (p *proc) serving(t *testing.T) string {
	t.Helper()
	select {
	case addr := <-p.addrCh:
		return "http://" + addr
	case err := <-p.exited:
		t.Fatalf("daemon exited before serving: %v\n%s", err, p.log())
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never served:\n%s", p.log())
	}
	return ""
}

// waitExit blocks until the process dies, returning its exit error.
func (p *proc) waitExit(t *testing.T, within time.Duration, why string) error {
	t.Helper()
	select {
	case err := <-p.exited:
		return err
	case <-time.After(within):
		t.Fatalf("%s: process still alive after %s\n%s", why, within, p.log())
	}
	return nil
}

// startDaemon launches mflushd in cluster mode on a free port with the
// given faults armed, its store at storePath, and any extra flags.
func startDaemon(t *testing.T, bin, faults, storePath string, flags ...string) *proc {
	t.Helper()
	return start(t, bin, []string{"MFLUSH_FAULTPOINTS=" + faults},
		append([]string{"-addr", "127.0.0.1:0", "-cluster", "-lease-ttl", "5s",
			"-wal-compact", "1", "-store", storePath, "-drain-timeout", "30s"}, flags...)...)
}

// startWorker launches one mflushworker against base. Its environment
// carries no faultpoints: only the daemon crashes in this matrix.
func startWorker(t *testing.T, bin, base string) *proc {
	t.Helper()
	return start(t, bin, []string{"MFLUSH_FAULTPOINTS="},
		"-coordinator", base, "-capacity", "2", "-lease-wait", "100ms", "-quiet")
}

// ---- HTTP helpers ---------------------------------------------------

var client = &http.Client{Timeout: 10 * time.Second}

// submit posts the spec; the returned error covers the daemon dying
// mid-request, which a crash scenario may legitimately cause.
func submit(base, spec string) (string, error) {
	resp, err := client.Post(base+"/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %d: %s", resp.StatusCode, body)
	}
	var decoded struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &decoded); err != nil {
		return "", err
	}
	return decoded.ID, nil
}

// waitFleet polls the fleet listing until n workers are registered —
// submitting before that would route jobs through the local fallback,
// never touching the queue the matrix wants to crash.
func waitFleet(t *testing.T, base string, n int) {
	t.Helper()
	simtest.WaitFor(t, 30*time.Second, func() bool {
		resp, err := client.Get(base + "/v1/workers")
		if err != nil {
			t.Fatalf("fleet poll: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var fleet struct {
			Workers []json.RawMessage `json:"workers"`
		}
		if err := json.Unmarshal(body, &fleet); err != nil {
			t.Fatalf("fleet poll: %v (%s)", err, body)
		}
		return len(fleet.Workers) >= n
	}, "fleet never reached %d workers", n)
}

// waitDone polls a campaign to its terminal state.
func waitDone(t *testing.T, base, id string) {
	t.Helper()
	simtest.WaitFor(t, 120*time.Second, func() bool {
		resp, err := client.Get(base + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatalf("status poll: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status poll: %v (%s)", err, body)
		}
		if st.State != "done" && st.State != "running" {
			t.Fatalf("campaign %s settled as %q, want done", id, st.State)
		}
		return st.State == "done"
	}, "campaign %s never finished", id)
}

// aggregates fetches every format of a campaign's result.
func aggregates(t *testing.T, base, id string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(formats))
	for _, format := range formats {
		resp, err := client.Get(base + "/v1/campaigns/" + id + "/result?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: %d: %s", format, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("result %s: empty body", format)
		}
		out[format] = string(body)
	}
	return out
}

// storeRecords parses a store file into key -> record line, failing on
// duplicate keys — a duplicate means a job's result was persisted twice,
// which the exactly-once contract forbids.
func storeRecords(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := make(map[string]string)
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("store %s: bad line %q: %v", path, line, err)
		}
		if _, dup := recs[rec.Key]; dup {
			t.Fatalf("store %s: key %s persisted twice", path, rec.Key)
		}
		recs[rec.Key] = string(line)
	}
	return recs
}

// ---- the matrix -----------------------------------------------------

// reference runs the campaign once, uninterrupted, on the faultpoint
// build with nothing armed — the golden aggregates and store every
// crash scenario must reproduce.
var (
	refOnce  sync.Once
	refAggs  map[string]string
	refStore map[string]string
)

func reference(t *testing.T) (map[string]string, map[string]string) {
	t.Helper()
	refOnce.Do(func() {
		daemonBin, workerBin := binaries(t)
		base := t.TempDir()
		storePath := filepath.Join(base, "store.jsonl")
		d := startDaemon(t, daemonBin, "", storePath, "-state-dir", filepath.Join(base, "state"))
		addr := d.serving(t)
		startWorker(t, workerBin, addr)
		waitFleet(t, addr, 1)
		id, err := submit(addr, crashSpec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, addr, id)
		refAggs = aggregates(t, addr, id)
		d.cmd.Process.Signal(syscall.SIGTERM)
		d.waitExit(t, 60*time.Second, "reference daemon drain")
		refStore = storeRecords(t, storePath)
		if len(refStore) != crashJobs {
			t.Fatalf("reference run persisted %d records, want %d", len(refStore), crashJobs)
		}
	})
	if refAggs == nil {
		t.Fatal("reference run failed in an earlier test")
	}
	return refAggs, refStore
}

// TestCrashMatrix kills the real daemon at every injected point and
// requires the restarted daemon to finish the campaign with results
// byte-identical to the uninterrupted reference.
//
// wal.append.torn is armed with a plain crash (every hit, so the
// first): the tear writes half a record before dying — the point exists
// precisely to leave a torn tail for recovery to repair.
func TestCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix rebuilds and repeatedly SIGKILLs real binaries")
	}
	scenarios := []struct {
		name   string
		faults string
	}{
		{"append-before", "wal.append.before=crash@3"},
		{"append-unsynced", "wal.sync.before=crash@4"},
		{"append-torn", "wal.append.torn=crash"},
		{"compact-tmp", "wal.compact.tmp=crash@3"},
		{"compact-renamed", "wal.compact.renamed=crash@3"},
		{"lease-granted", "cluster.lease.granted=crash"},
		{"ack-logged", "cluster.ack.logged=crash"},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			base := t.TempDir()
			crashAndResume(t, sc.faults, filepath.Join(base, "store.jsonl"),
				"-state-dir", filepath.Join(base, "state"))
		})
	}
}

// TestCrashResumesFromDefaultStateDir: started without -state-dir, the
// daemon keeps its queue in state/ beside -store, so a daemon SIGKILLed
// mid-campaign and restarted with the same flags resumes from there.
func TestCrashResumesFromDefaultStateDir(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds and SIGKILLs real binaries")
	}
	base := t.TempDir()
	log := crashAndResume(t, "cluster.lease.granted=crash", filepath.Join(base, "results.jsonl"))
	if want := "recovered queue from " + filepath.Join(base, "state"); !strings.Contains(log, want) {
		t.Fatalf("restarted daemon did not resume from the default state directory (want %q in its log):\n%s", want, log)
	}
}

// crashAndResume runs one crash scenario against the store at storePath
// with the given extra daemon flags. Incarnation 1 is armed with faults
// and must die by SIGKILL mid-campaign; incarnation 2 restarts with the
// same flags and nothing armed, and must finish the campaign with
// aggregates and a store byte-identical to the uninterrupted reference.
// It returns the restarted daemon's log.
func crashAndResume(t *testing.T, faults, storePath string, flags ...string) string {
	t.Helper()
	wantAggs, wantStore := reference(t)
	daemonBin, workerBin := binaries(t)

	// Incarnation 1: armed. The submit races the injected SIGKILL, so
	// its error is tolerated; the crash is not.
	d1 := startDaemon(t, daemonBin, faults, storePath, flags...)
	addr := d1.serving(t)
	w1 := startWorker(t, workerBin, addr)
	waitFleet(t, addr, 1)
	_, _ = submit(addr, crashSpec)
	err := d1.waitExit(t, 60*time.Second, "armed daemon")
	if err == nil {
		t.Fatalf("daemon exited cleanly, want SIGKILL from %s", faults)
	}
	w1.cmd.Process.Kill()

	// Incarnation 2: same flags, state directory and store, nothing
	// armed. It must boot (replaying or repairing the WAL), resume on
	// its own, and converge.
	d2 := startDaemon(t, daemonBin, "", storePath, flags...)
	addr2 := d2.serving(t)
	startWorker(t, workerBin, addr2)
	waitFleet(t, addr2, 1)
	id, err := submit(addr2, crashSpec)
	if err != nil {
		t.Fatalf("resubmit after restart: %v", err)
	}
	waitDone(t, addr2, id)
	got := aggregates(t, addr2, id)
	for _, format := range formats {
		if got[format] != wantAggs[format] {
			t.Errorf("%s aggregate differs from the uninterrupted run:\n%s\nvs\n%s",
				format, got[format], wantAggs[format])
		}
	}

	// Drain and compare the persisted store: the same records, each
	// exactly once.
	d2.cmd.Process.Signal(syscall.SIGTERM)
	d2.waitExit(t, 60*time.Second, "restarted daemon drain")
	store := storeRecords(t, storePath)
	if len(store) != len(wantStore) {
		t.Fatalf("restarted run persisted %d records, want %d\ndaemon log:\n%s",
			len(store), len(wantStore), d2.log())
	}
	for key, line := range wantStore {
		if store[key] != line {
			t.Errorf("record %s differs from the uninterrupted run:\n%s\nvs\n%s",
				key, store[key], line)
		}
	}
	return d2.log()
}
