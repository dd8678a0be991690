package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running `bixstore serve` process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
}

// command runs the program under test; it inherits the benchmark's CPU
// affinity. The process is killed if the benchmark dies first.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// buildIndex runs `bixstore csv` (table mode) or `bixstore build` (index
// mode) from the input file into dir.
func buildIndex(bixstore string, s *spec, input, dir string) error {
	args := []string{"csv", "-in", input, "-dir", dir, "-reorder", s.order}
	if !s.table {
		args = []string{"build", "-values", input, "-dir", dir,
			"-C", strconv.Itoa(s.cols[0].card), "-base", s.base}
	}
	args = append(args, "-scheme", "BS", "-enc", "range", "-codec", s.codec)
	out, err := command(bixstore, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("bixstore %s: %v\n%s", args[0], err, out)
	}
	return nil
}

// startServer boots `bixstore serve` on an ephemeral loopback port and
// returns once /readyz answers 200.
func startServer(bixstore string, s *spec, dir string, logW io.Writer) (*server, error) {
	args := []string{"serve", "-dir", dir, "-addr", "127.0.0.1:0"}
	if s.cache > 0 {
		args = append(args, "-cache", strconv.Itoa(s.cache))
	}
	cmd := command(bixstore, args...)
	cmd.Stderr = logW
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	srv := &server{cmd: cmd, done: make(chan error, 1)}
	// The first stdout line is "serving <dir> on <addr> (...)".
	lines := bufio.NewReader(stdout)
	line, rerr := lines.ReadString('\n')
	go func() {
		// Later stdout lines carry nothing the benchmark reads; draining
		// them keeps the server from blocking on a full pipe.
		_, _ = io.Copy(io.Discard, lines)
		srv.done <- cmd.Wait()
	}()
	if rerr != nil {
		srv.stop()
		return nil, fmt.Errorf("bixstore serve exited before listening: %v", rerr)
	}
	f := strings.Fields(line)
	for i := 0; i+1 < len(f); i++ {
		if f[i] == "on" {
			srv.base = "http://" + f[i+1]
		}
	}
	if srv.base == "" {
		srv.stop()
		return nil, fmt.Errorf("bixstore serve: no address in %q", line)
	}
	if err := srv.awaitReady(30 * time.Second); err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

// awaitReady polls /readyz every 200µs until it answers 200.
func (s *server) awaitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if resp, err := hc.Get(s.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			_ = resp.Body.Close()                 // read-only; the status is what counts
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err // stop waits on it too
			return fmt.Errorf("bixstore serve exited during boot: %v", err)
		case <-deadline.C:
			return fmt.Errorf("bixstore serve not ready after %v", timeout)
		case <-tick.C:
		}
	}
}

// peakRSSMiB reads the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// resetPeakRSS sets the server's VmHWM back to its current resident set.
func (s *server) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", s.cmd.Process.Pid), []byte("5"), 0)
}

// rssWindow is the length of the windows whose peak resident sets the
// end-to-end run reports the median of.
const rssWindow = 5 * time.Second

// windowPeaks resets the server's VmHWM, then reads and resets it every
// rssWindow until stop is closed, and once more then. It returns each
// window's peak in MiB.
func (s *server) windowPeaks(stop <-chan struct{}) ([]float64, error) {
	if err := s.resetPeakRSS(); err != nil {
		return nil, err
	}
	tick := time.NewTicker(rssWindow)
	defer tick.Stop()
	var peaks []float64
	for {
		var done bool
		select {
		case <-stop:
			done = true
		case <-tick.C:
		}
		p, err := s.peakRSSMiB()
		if err != nil {
			return peaks, err
		}
		peaks = append(peaks, p)
		if done {
			return peaks, nil
		}
		if err := s.resetPeakRSS(); err != nil {
			return peaks, err
		}
	}
}

// stop sends SIGTERM (graceful drain), escalates to SIGKILL after ten
// seconds, and waits until the process has exited.
func (s *server) stop() {
	// Signal and Kill fail only once the process has exited, and then
	// done is ready.
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		fi, err := e.Info()
		if err == nil {
			total += fi.Size()
		}
		return err
	})
	return total, err
}
