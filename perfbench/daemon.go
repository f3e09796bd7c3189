package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one memgazed child process listening on loopback.
type daemon struct {
	bin  string
	args []string
	addr string // host:port
	log  string // stderr file
	cmd  *exec.Cmd
	done chan error
}

// freeAddr reserves an ephemeral loopback port and releases it for the
// child to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon launches memgazed with args plus -addr and waits until
// it answers /v1/readyz.
func startDaemon(bin, addr, logPath string, args []string) (*daemon, error) {
	d := &daemon{bin: bin, args: args, addr: addr, log: logPath}
	return d, d.start()
}

func (d *daemon) start() error {
	logf, err := os.OpenFile(d.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	d.cmd = exec.Command(d.bin, append([]string{"-addr", d.addr}, d.args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// If the benchmark dies without stopping its daemons (a crash, a
	// kill on timeout), the kernel kills them with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return fmt.Errorf("starting memgazed: %w", err)
	}
	d.done = make(chan error, 1)
	go func() { d.done <- d.cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.cmd = nil
			log, _ := os.ReadFile(d.log)
			return fmt.Errorf("memgazed exited during start (%v): %s", err, log[max(0, len(log)-2048):])
		default:
		}
		resp, err := http.Get("http://" + d.addr + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return fmt.Errorf("memgazed on %s not ready after 30s; log %s", d.addr, d.log)
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain takes longer than 15s.
func (d *daemon) stop() error {
	if d == nil || d.cmd == nil {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		err = <-d.done
		err = errors.Join(errors.New("memgazed did not drain in 15s"), err)
	}
	d.cmd = nil
	return err
}

// restart stops the daemon and starts it again with the same flags —
// over the same data directory, so it recovers the stored corpus.
func (d *daemon) restart() error {
	if err := d.stop(); err != nil {
		return err
	}
	return d.start()
}

// peakRSS returns the process's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (d *daemon) url() string { return "http://" + d.addr }

// cpuTime returns the CPU time the process's threads have run, summed
// from each thread's schedstat. The kernel leaves out of it the time a
// hypervisor gave the CPU to other guests (steal).
func (d *daemon) cpuTime() (time.Duration, error) {
	return procCPUTime(d.cmd.Process.Pid)
}

// procCPUTime sums the run time of every live thread of process pid.
// A thread that has exited takes its time with it; Go programs rarely
// end threads.
func procCPUTime(pid int) (time.Duration, error) {
	dir := filepath.Join("/proc", strconv.Itoa(pid), "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f, _, _ := strings.Cut(string(b), " ")
		ns, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s/schedstat: %w", t.Name(), err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}
