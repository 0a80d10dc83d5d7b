package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one advisord process under test, started with its defaults
// apart from the listen address, the checkpoint directory and, for ingest,
// the dataset.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	exited  chan struct{} // closed once the process has been waited for
	waitErr error

	mu    sync.Mutex
	lines []stampedLine
	more  chan struct{} // signalled on every new stdout line
}

// stampedLine is a line of advisord's stdout and when it arrived.
type stampedLine struct {
	text string
	at   time.Time
}

// startAdvisord starts advisord recovering the input checkpoint from a
// fresh directory (advisord writes new generations into it), and waits
// until it prints its listen address. dataset, when set, is ingested with
// -i. The checkpoint is hard-linked, not copied: advisord only ever
// creates, renames and removes generation files, so the input's bytes stay
// untouched, and no copy is left for the kernel to write back while the
// run measures.
func startAdvisord(rc *runCtx, in inputs, dataset string, n int) (*daemon, error) {
	dir := filepath.Join(rc.tmp, fmt.Sprintf("ckpt-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.Link(in.ckptFile(), filepath.Join(dir, filepath.Base(in.ckptFile()))); err != nil {
		return nil, err
	}
	args := []string{"-listen", "127.0.0.1:0", "-checkpoint-dir", dir}
	if dataset != "" {
		args = append(args, "-i", dataset)
	}
	d := &daemon{cmd: exec.Command(rc.advisord, args...), exited: make(chan struct{}), more: make(chan struct{}, 1)}
	d.cmd.Stderr = os.Stderr
	d.cmd.SysProcAttr = orphanGuard()
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting advisord: %w", err)
	}
	go d.readLines(stdout)
	line, err := d.waitLine("serving on ", 60*time.Second)
	if err != nil {
		d.kill()
		return nil, err
	}
	d.addr = strings.TrimPrefix(line.text, "serving on ")
	return d, nil
}

// readLines records advisord's stdout until it closes, then reaps the
// process.
func (d *daemon) readLines(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		d.mu.Lock()
		d.lines = append(d.lines, stampedLine{text: sc.Text(), at: time.Now()})
		d.mu.Unlock()
		select {
		case d.more <- struct{}{}:
		default:
		}
	}
	d.waitErr = d.cmd.Wait()
	close(d.exited)
}

// waitLine waits for a stdout line starting with prefix.
func (d *daemon) waitLine(prefix string, timeout time.Duration) (stampedLine, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for seen := 0; ; {
		d.mu.Lock()
		for ; seen < len(d.lines); seen++ {
			if strings.HasPrefix(d.lines[seen].text, prefix) {
				l := d.lines[seen]
				d.mu.Unlock()
				return l, nil
			}
		}
		d.mu.Unlock()
		select {
		case <-d.more:
		case <-d.exited:
			return stampedLine{}, fmt.Errorf("advisord exited (%v) before printing %q", d.waitErr, prefix)
		case <-deadline.C:
			return stampedLine{}, fmt.Errorf("advisord did not print %q within %v", prefix, timeout)
		}
	}
}

// url returns the URL of path on the daemon.
func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// waitServing polls /healthz until advisord reports it is serving, and
// returns the wall time since the process was started and the CPU time
// advisord has spent by then. A recovering advisord binds its listener only
// after recovery, so the first poll usually finds it serving and the polls
// add next to nothing to its CPU time.
func (d *daemon) waitServing(timeout time.Duration) (wall, cpu time.Duration, err error) {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(d.url("/healthz"))
		if err == nil {
			var h struct {
				OK bool `json:"ok"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && h.OK {
				return time.Since(d.started), taskCPU(d.cmd.Process.Pid), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return 0, 0, fmt.Errorf("advisord not serving within %v", timeout)
}

// get fetches path and returns its body.
func (d *daemon) get(path string) ([]byte, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get(d.url(path))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

// peakRSSMB is the daemon's VmHWM so far.
func (d *daemon) peakRSSMB() float64 { return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)) }

// stop drains advisord with SIGTERM, as an operator would, and waits for
// it to exit; a drain that fails or hangs is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("advisord drain: %w", d.waitErr)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("advisord did not drain within 60s")
	}
}

// orphanGuard makes a child process die with the benchmark, so a run that
// is itself killed leaves no advisord, load generator or worker behind.
func orphanGuard() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// kill stops the process without a drain and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine: we only need it gone
	<-d.exited
}
