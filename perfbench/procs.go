package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"cohort/client"
)

// proc is one child process under test. Its output is kept (bounded) for
// the error message when something goes wrong.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  *tailBuffer
	done chan struct{}
	err  error
}

// tailBuffer keeps the last few KiB written to it.
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > 8<<10 {
		t.b = append([]byte(nil), t.b[len(t.b)-4<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// startProc execs bin/name with args; the process inherits nothing but the
// environment.
func startProc(bin, name string, args ...string) (*proc, error) {
	p := &proc{name: name, out: &tailBuffer{}, done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(bin, name), args...)
	p.cmd.SysProcAttr = orphanKill()
	p.cmd.Stdout = p.out
	p.cmd.Stderr = p.out
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// orphanKill makes the kernel kill a child if the benchmark dies first, so
// no daemon outlives a crashed run.
func orphanKill() *syscall.SysProcAttr { return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} }

// stop asks the process to exit (SIGTERM, the daemons' clean shutdown),
// kills it if it has not within five seconds, waits for it, and returns its
// peak resident set in MiB.
func (p *proc) stop() float64 {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is waited for below
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill() // last resort; the wait below reaps it
			<-p.done
		}
	}
	return maxRSSMiB(p.cmd)
}

// maxRSSMiB reads an exited child's peak resident set from its rusage.
func maxRSSMiB(cmd *exec.Cmd) float64 {
	if cmd.ProcessState == nil {
		return 0
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// stack is one launched serving deployment: a cohortd, optionally fronted by
// a cohortgw, and the sessions opened on it.
type stack struct {
	daemon, gw *proc
	front      string // where the workload's sessions connect
	conns      []*client.Conn
	openNs     []int64 // per session: the Connect call that succeeded
	setupNs    int64   // exec of the first daemon to OpenOK on every session
}

// launch execs the daemons at their default flags (only the listen and HTTP
// addresses set) and opens one session per entry of opts, retrying each
// Connect until the daemon answers. The stack's setupNs runs from the exec
// of cohortd to the last OpenOK.
func launch(bin string, viaGateway bool, opts []client.Options, tr *tracer) (*stack, error) {
	addrs := make([]string, 4)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	st := &stack{front: addrs[0]}
	t0 := now()
	d, err := startProc(bin, "cohortd", "-listen", addrs[0], "-http", addrs[1])
	if err != nil {
		return nil, err
	}
	st.daemon = d
	if viaGateway {
		// The gateway routes only to shards its first probe saw healthy, so
		// it starts once the shard answers /healthz.
		if err := waitHealthy(d, addrs[1]); err != nil {
			st.close()
			return nil, err
		}
		g, err := startProc(bin, "cohortgw", "-listen", addrs[2], "-http", addrs[3],
			"-shards", "s0="+addrs[0]+"@"+addrs[1])
		if err != nil {
			st.close()
			return nil, err
		}
		st.gw = g
		st.front = addrs[2]
	}
	for _, o := range opts {
		c, ns, err := connectRetry(st.front, o, st.procs())
		if err != nil {
			st.close()
			return nil, err
		}
		st.conns = append(st.conns, c)
		st.openNs = append(st.openNs, ns)
	}
	st.setupNs = now() - t0
	tr.record(span{name: "setup", start: t0, end: t0 + st.setupNs, id: tr.newID()})
	return st, nil
}

func (st *stack) procs() []*proc {
	if st.gw != nil {
		return []*proc{st.daemon, st.gw}
	}
	return []*proc{st.daemon}
}

// close drops the sessions, stops the processes and returns their summed
// peak RSS in MiB.
func (st *stack) close() float64 {
	for _, c := range st.conns {
		c.Close()
	}
	rss := 0.0
	// The gateway goes first so it never sees its shard vanish.
	if st.gw != nil {
		rss += st.gw.stop()
	}
	if st.daemon != nil {
		rss += st.daemon.stop()
	}
	return rss
}

// connectRetry opens one session, retrying every millisecond while the
// daemon is still coming up. It returns the duration of the Connect call
// that succeeded.
func connectRetry(addr string, o client.Options, watch []*proc) (*client.Conn, int64, error) {
	o.DialTimeout = time.Second
	deadline := time.Now().Add(10 * time.Second)
	for {
		t := now()
		c, err := client.Connect(addr, o)
		if err == nil {
			return c, now() - t, nil
		}
		for _, p := range watch {
			select {
			case <-p.done:
				return nil, 0, fmt.Errorf("%s exited early: %v\n%s", p.name, p.err, p.out)
			default:
			}
		}
		if time.Now().After(deadline) || errors.Is(err, client.ErrRejected) && !errors.Is(err, client.ErrAdmission) {
			return nil, 0, fmt.Errorf("open %s session on %s: %w", o.Accel, addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitHealthy polls a daemon's /healthz every millisecond until it answers
// 200.
func waitHealthy(p *proc, httpAddr string) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get("http://" + httpAddr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited early: %v\n%s", p.name, p.err, p.out)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy on %s: %v", p.name, httpAddr, err)
		}
		time.Sleep(time.Millisecond)
	}
}
