package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// repoRoot finds the checkout that holds cmd/ftserve: the working
// directory (go run from the root, or run.sh) or its parent (go run -C
// benchmark).
func repoRoot() (string, error) {
	for _, d := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(d, "cmd", "ftserve", "main.go")); err == nil {
			return filepath.Abs(d)
		}
	}
	return "", fmt.Errorf("cmd/ftserve not found in . or ..: run from the repository root")
}

// buildServer compiles cmd/ftserve from source into the checkout's build
// directory. The go tool's own cache makes a repeated build a no-op.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "ftserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ftserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ftserve: %w\n%s", err, out)
	}
	return bin, nil
}

// serverFlags are the ftserve flags every workload runs with: the
// production defaults (telemetry, history and shape analytics stay on)
// plus a durable data directory with per-record fsync.
// autoCkptRecords 0 leaves the auto-checkpoint policy off.
func serverFlags(addr, dataDir string, autoCkptRecords int) []string {
	return []string{
		"-addr", addr,
		"-data-dir", dataDir,
		"-shards", "2",
		"-cache", "256",
		"-wal-sync", "always",
		"-auto-checkpoint-records", strconv.Itoa(autoCkptRecords),
	}
}

// server is one ftserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *tailWriter
	ctl    *http.Client  // control-plane requests, outside measured phases
	exited chan struct{} // closed once the process has been reaped
}

// tailWriter keeps the end of the server's log, to show when it fails. The
// server writes one JSON line per request to standard error; taking it
// through a pipe, as a log collector would, keeps megabytes of log off the
// filesystem whose fsyncs the write metrics time.
type tailWriter struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2*tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tailWriter) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf[max(0, len(t.buf)-tailBytes):])
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches ftserve on dataDir and returns once /healthz
// answers 200.
func startServer(bin, dataDir string, autoCkptRecords int) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logw := &tailWriter{}
	cmd := exec.Command(bin, serverFlags(addr, dataDir, autoCkptRecords)...)
	cmd.Stdout, cmd.Stderr = logw, logw
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logw,
		ctl: &http.Client{Timeout: 10 * time.Second}, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(s.exited) }()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("ftserve exited during start-up:\n%s", logw)
		default:
		}
		if resp, err := s.ctl.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("ftserve not healthy after 60s:\n%s", logw)
}

// kill sends SIGKILL and waits until the process has ended.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
	s.ctl.CloseIdleConnections()
}

// getJSON fetches a control-plane endpoint.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.ctl.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Index struct {
		Docs int `json:"docs"`
	} `json:"index"`
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Ranked struct {
		FastPath   uint64 `json:"fast_path_evals"`
		Exhaustive uint64 `json:"exhaustive_evals"`
	} `json:"ranked"`
	Segments struct {
		Merges     uint64 `json:"merges"`
		DocsMerged uint64 `json:"docs_merged"`
		Background uint64 `json:"background_merges"`
		InFlight   uint64 `json:"inflight_merges"`
		Queued     uint64 `json:"queued_merges"`
		Aborts     uint64 `json:"background_aborts"`
	} `json:"segments"`
	WAL struct {
		Syncs              uint64 `json:"syncs"`
		GroupCommits       uint64 `json:"group_commits"`
		GroupCommitRecords uint64 `json:"group_commit_records"`
		Checkpoints        uint64 `json:"checkpoints"`
		AutoCheckpointErr  string `json:"auto_checkpoint_err"`
		Recovery           struct {
			ReplayedRecords uint64 `json:"replayed_records"`
		} `json:"recovery"`
	} `json:"wal"`
	Shed uint64 `json:"shed_requests"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	err := s.getJSON("/stats", &st)
	return st, err
}

// settle waits, for at most two seconds, until no background merge is
// running or queued: what one phase started must not be charged to the
// next.
func (s *server) settle() error {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		st, err := s.stats()
		if err != nil {
			return err
		}
		if st.Segments.InFlight+st.Segments.Queued == 0 || time.Now().After(deadline) {
			return nil
		}
	}
}

// cpuSeconds returns the user+system CPU time a process has used, from
// /proc; 0 where /proc is not available.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks of 1/100 s.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}
