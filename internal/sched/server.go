package sched

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"cohort"
	"cohort/internal/wire"
)

// AccelFactory builds a fresh accelerator instance for one session. Each
// session needs its own instance because the instance carries the tenant's
// CSR state and reused output buffers.
type AccelFactory func() (cohort.Accelerator, error)

// Catalog maps wire-protocol accelerator names to factories — the set of
// engine types a daemon offers.
type Catalog map[string]AccelFactory

// DefaultCatalog serves the built-in fixed-function accelerators.
func DefaultCatalog() Catalog {
	return Catalog{
		"null":      func() (cohort.Accelerator, error) { return cohort.NewNull(), nil },
		"sha256":    func() (cohort.Accelerator, error) { return cohort.NewSHA256(), nil },
		"aes128":    func() (cohort.Accelerator, error) { return cohort.NewAES128(), nil },
		"aes128dec": func() (cohort.Accelerator, error) { return cohort.NewAES128Decrypt(), nil },
	}
}

// Server exposes a Scheduler over the wire protocol: one TCP connection per
// session. The reader half of each connection feeds the session input queue
// (a full queue stops the socket read — per-tenant backpressure reaches all
// the way back to the remote producer via TCP flow control); the writer half
// streams results out as the scheduler completes them and finishes with a
// Done frame carrying the session's counters.
//
// Both halves run the batched wire hot path: inbound Data frames decode into
// pooled word buffers and land in the input queue with one TryPushSlice per
// frame; outbound results coalesce every completed block sitting in the
// output queue into a single Data frame written with one writev straight
// from the queue's ring segments — no allocation and no copy at steady
// state on little-endian hosts.
type Server struct {
	sch     *Scheduler
	catalog Catalog
	wg      sync.WaitGroup

	// Connection knobs, applied to every accepted TCP connection. Set before
	// Serve. NewServer enables NoDelay: a coalesced Data frame is already a
	// full batch, so delaying it behind Nagle only adds tail latency.
	NoDelay bool
	// ReadBufferSize / WriteBufferSize, when > 0, set SO_RCVBUF/SO_SNDBUF on
	// accepted connections — headroom knobs for high-bandwidth links.
	ReadBufferSize  int
	WriteBufferSize int
	// LegacyWire selects the pre-coalescing serving path (one allocated
	// decode per inbound frame, copy-framed outbound pops). Kept so
	// cohortload can A/B the batched hot path against what it replaced;
	// never set it in production.
	LegacyWire bool
	// Log, when non-nil, receives structured connection-lifecycle records:
	// session admissions (tenant, accel, session id, remote address),
	// admission rejections, and session completion with final counters. Nil
	// disables lifecycle logging; the serve hot path never logs either way.
	Log *slog.Logger

	mu     sync.Mutex
	closed bool
	ln     net.Listener
	conns  map[net.Conn]struct{}
}

// NewServer wraps sch. A nil catalog means DefaultCatalog.
func NewServer(sch *Scheduler, catalog Catalog) *Server {
	if catalog == nil {
		catalog = DefaultCatalog()
	}
	return &Server{sch: sch, catalog: catalog, NoDelay: true, conns: make(map[net.Conn]struct{})}
}

// ErrServerClosed is returned by Serve after Close, mirroring net/http.
var ErrServerClosed = errors.New("sched: server closed")

// Serve accepts connections on ln until Close. It always returns a non-nil
// error: ErrServerClosed after a clean Close, the accept error otherwise.
func (sv *Server) Serve(ln net.Listener) error {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	sv.ln = ln
	sv.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			sv.mu.Lock()
			closed := sv.closed
			sv.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		sv.mu.Lock()
		if sv.closed {
			sv.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		sv.conns[c] = struct{}{}
		sv.wg.Add(1)
		sv.mu.Unlock()
		go sv.handle(c)
	}
}

// Close stops accepting, closes every live connection (their sessions are
// killed), and waits for the handlers to drain. It does not close the
// Scheduler — the owner may front it with several listeners.
func (sv *Server) Close() error {
	sv.mu.Lock()
	sv.closed = true
	ln := sv.ln
	for c := range sv.conns {
		c.Close()
	}
	sv.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	sv.wg.Wait()
	return err
}

// Quiesce stops accepting new connections and waits up to timeout for the
// in-flight handlers to finish on their own. It is the wire-level half of a
// drain: Scheduler.Drained says every session *retired*, but the handler
// may still be writing that session's final Done frame — a Close at that
// instant cuts the frame off mid-write and the client sees a lost
// connection instead of its stats. Quiesce closes nothing; handlers exit
// naturally once the final frame is flushed (the writer closes the
// connection, unblocking the reader). A handler that outlives the timeout —
// e.g. an idle connection that never opened a session — is left for Close
// to kill. Reports whether every handler finished.
func (sv *Server) Quiesce(timeout time.Duration) bool {
	sv.mu.Lock()
	sv.closed = true
	ln := sv.ln
	sv.ln = nil // Quiesce owns the close; a later Close must not re-close
	sv.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	idle := make(chan struct{})
	go func() { sv.wg.Wait(); close(idle) }()
	select {
	case <-idle:
		return true
	case <-time.After(timeout):
		return false
	}
}

func (sv *Server) forget(c net.Conn) {
	sv.mu.Lock()
	delete(sv.conns, c)
	sv.mu.Unlock()
}

// handle owns one connection: admit the session, pump the two directions,
// tear down. The handler goroutine is the socket reader; it spawns one
// writer goroutine for the result stream.
func (sv *Server) handle(c net.Conn) {
	defer sv.wg.Done()
	defer sv.forget(c)
	defer c.Close()

	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(sv.NoDelay)
		if sv.ReadBufferSize > 0 {
			tc.SetReadBuffer(sv.ReadBufferSize)
		}
		if sv.WriteBufferSize > 0 {
			tc.SetWriteBuffer(sv.WriteBufferSize)
		}
	}

	fr := wire.NewReader(c)
	fw := wire.NewWriter(c)

	t, payload, err := fr.Next()
	if err != nil || t != wire.Open {
		// Not worth an Error frame on a half-open probe; just drop it.
		return
	}
	var req wire.OpenRequest
	if err := wire.Unmarshal(t, payload, &req); err != nil {
		fw.JSON(wire.Error, wire.ErrorReply{Message: err.Error(), Code: wire.CodeBadRequest})
		return
	}
	factory, ok := sv.catalog[req.Accel]
	if !ok {
		if sv.Log != nil {
			sv.Log.Warn("session rejected", "tenant", req.Tenant, "accel", req.Accel,
				"remote", c.RemoteAddr().String(), "code", wire.CodeUnknownAccel)
		}
		fw.JSON(wire.Error, wire.ErrorReply{
			Message: fmt.Sprintf("unknown accelerator %q", req.Accel), Code: wire.CodeUnknownAccel,
		})
		return
	}
	acc, err := factory()
	if err != nil {
		fw.JSON(wire.Error, wire.ErrorReply{Message: err.Error(), Code: wire.CodeBadRequest})
		return
	}
	ss, err := sv.sch.Register(SessionConfig{
		Tenant: req.Tenant, Accel: acc, CSR: req.CSR,
		Weight: req.Weight, Quota: req.Quota, QueueCap: req.QueueCap,
		LegacyHandoff: sv.LegacyWire,
	})
	if err != nil {
		code := wire.CodeBadRequest
		switch {
		case errors.Is(err, ErrTooManySessions):
			code = wire.CodeAdmission
		case errors.Is(err, ErrDraining):
			code = wire.CodeDraining
		case errors.Is(err, ErrClosed):
			code = wire.CodeClosed
		}
		if sv.Log != nil {
			sv.Log.Warn("session rejected", "tenant", req.Tenant, "accel", req.Accel,
				"remote", c.RemoteAddr().String(), "code", code, "err", err)
		}
		fw.JSON(wire.Error, wire.ErrorReply{Message: err.Error(), Code: code})
		return
	}
	if sv.Log != nil {
		sv.Log.Info("session open", "session", ss.ID(), "tenant", ss.Tenant(),
			"accel", req.Accel, "weight", cfgWeight(req.Weight), "timing", req.Timing,
			"remote", c.RemoteAddr().String())
	}
	if err := fw.JSON(wire.OpenOK, wire.OpenReply{
		Session: ss.ID(), InWords: acc.InWords(), OutWords: acc.OutWords(),
	}); err != nil {
		ss.Kill()
		return
	}

	// Result pump. It owns the connection's write side from here on and is
	// the one that closes the connection: Done is always the final frame.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		sv.pumpResults(c, ss, req.Timing)
	}()

	closeSent := sv.readStream(fr, ss)
	if !closeSent {
		// The producer vanished mid-stream: discard its session.
		ss.Kill()
	}
	<-writerDone
	if sv.Log != nil {
		st := ss.Stats()
		args := []any{"session", ss.ID(), "tenant", ss.Tenant(),
			"blocks", st.Blocks, "words_in", st.WordsIn, "words_out", st.WordsOut,
			"remote", c.RemoteAddr().String()}
		if serr := ss.Err(); serr != nil {
			sv.Log.Warn("session closed", append(args, "err", serr)...)
		} else {
			sv.Log.Info("session closed", args...)
		}
	}
}

// cfgWeight mirrors Register's weight defaulting for log records.
func cfgWeight(w int) int {
	if w == 0 {
		return 1
	}
	return w
}

// readStream feeds inbound Data frames into the session input queue until
// CloseSend, a protocol violation, or a dead connection. Reports whether the
// client ended its stream deliberately.
//
// Data frames decode into pooled word buffers (wire.Reader.NextData) that
// land in the queue with whole-frame TryPushSlice calls — no per-frame
// allocation. LegacyWire keeps the old allocate-and-decode path for A/B
// benchmarks.
func (sv *Server) readStream(fr *wire.Reader, ss *Session) bool {
	// One reusable timer serves every backpressure pause on this connection;
	// time.After in the full-queue loop would allocate a fresh timer per spin.
	wait := newStoppedTimer()
	defer wait.Stop()
	for {
		var ws []cohort.Word
		var t wire.Type
		var err error
		if sv.LegacyWire {
			var payload []byte
			if t, payload, err = fr.Next(); err == nil && t == wire.Data {
				ws, err = wire.Words(payload)
			}
		} else {
			t, ws, _, err = fr.NextData()
		}
		if err != nil {
			return false
		}
		switch t {
		case wire.Data:
			if !sv.pushWords(ss, ws, wait) {
				return false
			}
		case wire.CloseSend:
			ss.CloseSend()
			return true
		default:
			return false
		}
	}
}

// newStoppedTimer returns a drained timer ready for Reset — the reusable
// replacement for time.After in per-frame wait loops.
func newStoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}

// pushWords moves one decoded Data frame into the session input queue. When
// the queue is full it waits — not reading the socket is exactly how
// per-tenant backpressure propagates to the remote producer. Gives up once
// the session is retired (quota, kill): the remaining stream has nowhere to
// go.
func (sv *Server) pushWords(ss *Session, ws []cohort.Word, wait *time.Timer) bool {
	for len(ws) > 0 {
		n := ss.In().TryPushSlice(ws)
		ws = ws[n:]
		if n > 0 {
			// Latency attribution: stamp the head of the waiting batch (first
			// push since the last dispatch wins; one atomic load otherwise).
			ss.markIngress()
			sv.sch.kickWorkers()
			continue
		}
		if sv.LegacyWire {
			// Pre-change behavior for the A/B baseline: poll the full queue.
			wait.Reset(100 * time.Microsecond)
			select {
			case <-ss.Done():
				wait.Stop()
				return false
			case <-sv.sch.stop:
				wait.Stop()
				return false
			case <-wait.C:
			}
			continue
		}
		// Queue full: park until the scheduler frees room (InSpace is a
		// coalesced edge trigger, so re-check the queue on every wakeup). The
		// timer is only a fallback against a signal consumed by a prior pass.
		wait.Reset(2 * time.Millisecond)
		select {
		case <-ss.Done():
			wait.Stop()
			return false
		case <-sv.sch.stop:
			wait.Stop()
			return false
		case <-ss.InSpace():
			if !wait.Stop() {
				<-wait.C
			}
		case <-wait.C:
		}
	}
	return true
}

// pumpResults streams the session output queue to the client as Data
// frames, then sends the final Done frame and closes the connection. The
// output queue is closed by the scheduler at retirement, so draining it is
// the handler's retirement barrier.
//
// Every pass coalesces all completed blocks currently in the queue — up to
// a whole frame's worth — into one Data frame, written with a single writev
// directly from the queue's two ring segments (wire.Writer.WordsN): batching
// the PR 1 way, applied to the socket. LegacyWire keeps the old
// pop-into-buffer, copy-framed path for A/B benchmarks.
func (sv *Server) pumpResults(c net.Conn, ss *Session, timing bool) {
	fw := wire.NewWriter(c)
	idle := 50 * time.Microsecond // LegacyWire backoff-poll interval
	wait := newStoppedTimer()
	defer wait.Stop()
	var buf []cohort.Word
	if sv.LegacyWire {
		buf = make([]cohort.Word, 4096)
	}
	// Telemetry cadence for opted-in sessions: a frame goes out only when new
	// stage samples have landed and at least telemetryEvery has passed since
	// the last one — a trickle, not a stream. Sessions that did not opt in
	// never reach this code with timing set, so the zero-alloc steady state
	// (the JSON marshal here allocates) is untouched for them.
	const telemetryEvery = 250 * time.Millisecond
	var lastTelem time.Time
	var lastSamples uint64
	for {
		var n int
		var werr error
		if sv.LegacyWire {
			if n = ss.Out().TryPopInto(buf); n > 0 {
				werr = fw.WordsCopy(buf[:n])
			}
		} else {
			a, b := ss.Out().ReadSegments()
			if n = len(a) + len(b); n > 0 {
				if n > wire.MaxFrameWords {
					// A queue deeper than a frame drains across passes.
					n = wire.MaxFrameWords
					if n <= len(a) {
						a, b = a[:n], nil
					} else {
						b = b[:n-len(a)]
					}
				}
				werr = fw.WordsN(a, b)
				ss.Out().CommitRead(n)
			}
		}
		if n > 0 {
			if !sv.LegacyWire {
				// Draining output may unblock a session parked on output-room
				// backpressure: let an engine re-dispatch it right away.
				sv.sch.kickWorkers()
			}
			idle = 50 * time.Microsecond
			if werr != nil {
				// Client stopped reading; results are undeliverable.
				ss.Kill()
				return
			}
			// The frame reached the kernel: close the wire stage for a sampled
			// quantum whose results it carried (no-op when unstamped).
			ss.observeWire()
			if timing {
				if sm := ss.LatencySamples(); sm != lastSamples && time.Since(lastTelem) >= telemetryEvery {
					t := ss.Telemetry()
					if fw.JSON(wire.Telemetry, t) != nil {
						ss.Kill()
						return
					}
					lastSamples, lastTelem = sm, time.Now()
				}
			}
			continue
		}
		if ss.Out().Drained() {
			break
		}
		if sv.LegacyWire {
			// Pre-change behavior for the A/B baseline: backoff polling.
			wait.Reset(idle)
			select {
			case <-sv.sch.stop:
				return
			case <-wait.C:
				if idle < 2*time.Millisecond {
					idle *= 2
				}
			}
			continue
		}
		// Empty but not drained: park until the scheduler publishes (OutReady
		// is a coalesced edge trigger — re-scan the queue on every wakeup; the
		// timer only backstops a signal consumed by a previous pass).
		wait.Reset(2 * time.Millisecond)
		select {
		case <-sv.sch.stop:
			return
		case <-ss.OutReady():
			if !wait.Stop() {
				<-wait.C
			}
		case <-wait.C:
		}
	}
	st := ss.Stats()
	serr := ss.Err()
	if serr != nil && (errors.Is(serr, ErrKilled) || retireCode(serr) == wire.CodeFault) {
		// The session died mid-stream (accelerator fault, kill): an Error
		// frame is the final word, so the client surfaces a typed error
		// instead of a truncated-looking stream.
		fw.JSON(wire.Error, wire.ErrorReply{Message: serr.Error(), Code: retireCode(serr)})
		c.Close()
		return
	}
	done := wire.DoneReply{
		Blocks: st.Blocks, WordsIn: st.WordsIn, WordsOut: st.WordsOut,
		DroppedWords: st.DroppedWords,
	}
	if serr != nil {
		done.Err = serr.Error()
		done.Code = retireCode(serr)
	}
	if timing {
		t := ss.Telemetry()
		done.Timing = &t
	}
	fw.JSON(wire.Done, done)
	// Closing here (not in handle) makes the final frame reliably the last
	// thing the client sees even while the reader half is still parked in a
	// read.
	c.Close()
}

// retireCode maps a session's terminal error to its wire code.
func retireCode(err error) string {
	switch {
	case errors.Is(err, ErrQuotaExceeded):
		return wire.CodeQuota
	case errors.Is(err, ErrClosed):
		return wire.CodeClosed
	case errors.Is(err, ErrKilled):
		return wire.CodeKilled
	default:
		return wire.CodeFault
	}
}
