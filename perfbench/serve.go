package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"cohort"
	"cohort/client"
)

// geometry is a session's block shape as the daemon reported it in OpenOK
// (Conn.InWords / Conn.OutWords): every count of blocks and every retire
// decision derives from it, never from a workload constant.
type geometry struct{ in, out int }

func geometryOf(c *client.Conn) geometry { return geometry{in: c.InWords(), out: c.OutWords()} }

// blocks is how many whole accelerator blocks n input words make.
func (g geometry) blocks(n int) int { return n / g.in }

// request is one unit the generator sends and then waits for: a whole
// number of accelerator blocks in one SendN.
type request struct {
	id     uint64
	span   uint64 // trace span id of the request (0 untraced)
	phase  int    // ladder rung or workload phase it belongs to
	due    int64  // when it was due to be sent, on the run clock
	in     []cohort.Word
	blocks int
}

// ledgerCap bounds requests outstanding on one session; a sender that
// reaches it waits, and the wait shows as generator lag.
const ledgerCap = 1 << 16

// ledger matches result words to requests in send order. A request of k
// blocks retires once k·OutWords result words have arrived (cohortload
// instead retired an arrival per input-sized run of output words, which is
// only right when InWords == OutWords).
type ledger struct {
	g    geometry
	ref  func(in, scratch []cohort.Word) []cohort.Word // expected output; nil skips the check
	q    chan *request                                 // pending, oldest first
	head *request
	got  int // result words of head received so far
	want []cohort.Word
	ok   bool
	buf  []cohort.Word
}

func newLedger(g geometry, ref func(in, scratch []cohort.Word) []cohort.Word) *ledger {
	return &ledger{g: g, ref: ref, q: make(chan *request, ledgerCap)}
}

// push files a request before its words are sent. It waits while ledgerCap
// requests are pending, unless gone closes (the receiver has stopped).
func (l *ledger) push(r *request, gone <-chan struct{}) error {
	select {
	case l.q <- r:
		return nil
	case <-gone:
		return errors.New("receiver stopped with requests pending")
	}
}

// accept consumes freshly received result words and calls done for every
// request they complete, with whether each of its words matched the
// reference. Words beyond every pending request are an error.
func (l *ledger) accept(ws []cohort.Word, done func(r *request, ok bool)) error {
	for len(ws) > 0 {
		if l.head == nil {
			select {
			case r := <-l.q:
				l.head, l.got, l.ok = r, 0, true
				if l.ref != nil {
					l.want = l.ref(r.in, l.buf[:0])
					l.buf = l.want[:0]
				}
			default:
				return fmt.Errorf("%d result words arrived with no request pending", len(ws))
			}
		}
		need := l.head.blocks*l.g.out - l.got
		m := min(need, len(ws))
		if l.ref != nil {
			for i, w := range ws[:m] {
				if w != l.want[l.got+i] {
					l.ok = false
					break
				}
			}
		}
		l.got += m
		ws = ws[m:]
		if l.got == l.head.blocks*l.g.out {
			r := l.head
			l.head = nil
			done(r, l.ok)
		}
	}
	return nil
}

// unanswered returns how many pushed requests never fully retired.
func (l *ledger) unanswered() int {
	n := len(l.q)
	if l.head != nil {
		n++
	}
	return n
}

// The reference outputs come from the Go standard library, independent of
// the repository's own accelerator code.

func nullRef(in, _ []cohort.Word) []cohort.Word { return in }

func sha256Ref(in, out []cohort.Word) []cohort.Word {
	var blk [64]byte
	for b := 0; b+8 <= len(in); b += 8 {
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(blk[8*i:], in[b+i])
		}
		sum := sha256.Sum256(blk[:])
		for i := 0; i < 4; i++ {
			out = append(out, binary.LittleEndian.Uint64(sum[8*i:]))
		}
	}
	return out
}

func aes128Ref(key []byte) (func(in, out []cohort.Word) []cohort.Word, error) {
	c, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return func(in, out []cohort.Word) []cohort.Word { return aesECB(c, in, out) }, nil
}

func aesECB(c cipher.Block, in, out []cohort.Word) []cohort.Word {
	var blk [16]byte
	for b := 0; b+2 <= len(in); b += 2 {
		binary.LittleEndian.PutUint64(blk[0:], in[b])
		binary.LittleEndian.PutUint64(blk[8:], in[b+1])
		c.Encrypt(blk[:], blk[:])
		out = append(out, binary.LittleEndian.Uint64(blk[0:]), binary.LittleEndian.Uint64(blk[8:]))
	}
	return out
}

// randomWords fills n words from rng.
func randomWords(rng *rand.Rand, n int) []cohort.Word {
	ws := make([]cohort.Word, n)
	for i := range ws {
		ws[i] = rng.Uint64()
	}
	return ws
}

// spinWindow is how long before a due time the pacer stops sleeping and
// yields in a loop instead. With the sleeping thread's timer slack cut to
// 1 ns, nanosleep wakes ≈10-20 µs late at p50, so 50 µs of yielding absorbs
// most of its overshoot while keeping the one spinning goroutine's CPU
// share small (see README.md, "Pacing").
const spinWindow = int64(50 * time.Microsecond)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// waitUntil returns at due (run clock): nanosleep until the spin window,
// then runtime.Gosched until the moment arrives. Before each sleep it cuts
// the current thread's timer slack from the default 50 µs to 1 ns; the
// goroutine stays on that thread from the prctl through the nanosleep, and
// is free to move between sleeps, so any thread it lands on is fixed too.
func waitUntil(due int64) {
	for {
		d := due - now()
		if d <= 0 {
			return
		}
		if d > spinWindow {
			// Best effort: without it the sleep just ends later.
			_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
			ts := syscall.NsecToTimespec(d - spinWindow)
			_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
			continue
		}
		runtime.Gosched()
	}
}

// poisson returns arrival times at rate hz over [start, end) on the run
// clock.
func poisson(rng *rand.Rand, hz float64, start, end int64) []int64 {
	var out []int64
	t := float64(start)
	for {
		t += rng.ExpFloat64() / hz * 1e9
		if int64(t) >= end {
			return out
		}
		out = append(out, int64(t))
	}
}

// lane is one session of a workload: its connection, its ledger and what
// its sender and receiver observe. Sender-side fields are written only by
// the sending goroutine and receiver-side fields only by the receiving one,
// until both have returned.
type lane struct {
	idx   int
	conn  *client.Conn
	g     geometry
	led   *ledger
	pool  [][]cohort.Word // request inputs, cycled
	next  int
	ids   *atomic.Uint64
	tr    *tracer
	inFly atomic.Int64 // requests sent, not yet retired

	// sender side
	sendUS    samples // per SendN call
	sendWords int64
	sends     int64
	lagUS     []samples // per phase: send start − due
	sendErr   error

	// receiver side
	recvUS    samples // time blocked in RecvInto
	recvWords int64
	recvs     int64
	latUS     []samples // per phase: due → last result word
	goodUntil int64
	okAt      samples // input bytes of each verified request retired by goodUntil, at its retire time
	drained   []int64 // per phase: when its last request retired
	retired   int64
	failed    int64
	recvErr   error
	onRetire  func(r *request, at int64) // optional, receiver goroutine
	credits   chan int64                 // closed-loop slots, see withWindow
	done      chan struct{}              // closed when the receiver returns
}

func newLane(idx int, c *client.Conn, ref func(in, scratch []cohort.Word) []cohort.Word, pool [][]cohort.Word, phases int, ids *atomic.Uint64, tr *tracer) *lane {
	g := geometryOf(c)
	return &lane{
		idx: idx, conn: c, g: g, led: newLedger(g, ref), pool: pool, ids: ids, tr: tr,
		lagUS: make([]samples, phases), latUS: make([]samples, phases),
		drained:   make([]int64, phases),
		goodUntil: 1<<63 - 1, done: make(chan struct{}),
	}
}

// send issues the next pooled input as one request due at due.
func (l *lane) send(phase int, due int64) error {
	in := l.pool[l.next%len(l.pool)]
	l.next++
	r := &request{id: l.ids.Add(1), span: l.tr.newID(), phase: phase, due: due, in: in, blocks: l.g.blocks(len(in))}
	t0 := now()
	l.lagUS[phase].add(float64(t0-due) / 1e3)
	l.inFly.Add(1)
	if err := l.led.push(r, l.done); err != nil {
		return fmt.Errorf("lane %d: %w", l.idx, err)
	}
	err := l.conn.SendN(in)
	t1 := now()
	l.sendUS.add(float64(t1-t0) / 1e3)
	l.sendWords += int64(len(in))
	l.sends++
	if l.tr.sampled(r.id) {
		l.tr.record(span{name: "client.SendN", start: t0, end: t1, id: l.tr.newID(), parent: r.span, req: r.id, lane: l.idx})
	}
	if err != nil {
		return fmt.Errorf("lane %d send: %w", l.idx, err)
	}
	return nil
}

// receive reads results until the daemon's Done, retiring requests by the
// geometry rule and checking every word against the reference.
func (l *lane) receive() {
	buf := make([]cohort.Word, 1<<14)
	for {
		t0 := now()
		n, err := l.conn.RecvInto(buf)
		t1 := now()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				l.recvErr = fmt.Errorf("lane %d receive: %w", l.idx, err)
			}
			return
		}
		l.recvUS.add(float64(t1-t0) / 1e3)
		l.recvWords += int64(n)
		l.recvs++
		if l.tr.sampled(uint64(l.recvs)) {
			l.tr.record(span{name: "client.RecvInto", start: t0, end: t1, id: l.tr.newID(), lane: l.idx})
		}
		err = l.led.accept(buf[:n], func(r *request, ok bool) {
			l.retired++
			l.inFly.Add(-1)
			l.drained[r.phase] = t1
			if !ok {
				l.failed++
			} else {
				l.latUS[r.phase].addAt(r.due, float64(t1-r.due)/1e3)
				if t1 <= l.goodUntil {
					l.okAt.addAt(t1, float64(len(r.in)*8))
				}
			}
			if l.tr.sampled(r.id) {
				l.tr.record(span{name: "request", start: r.due, end: t1, id: r.span, req: r.id, lane: l.idx})
			}
			if l.onRetire != nil {
				l.onRetire(r, t1)
			}
		})
		if err != nil {
			l.recvErr = fmt.Errorf("lane %d: %w", l.idx, err)
			return
		}
	}
}

// finish ends the outbound stream; the receiver then drains to Done.
func (l *lane) finish() {
	if err := l.conn.CloseSend(); err != nil && l.sendErr == nil {
		l.sendErr = fmt.Errorf("lane %d close send: %w", l.idx, err)
	}
}

// attempted and lost count this lane's requests: lost is every request
// that failed its check, was never answered, or errored on the wire.
func (l *lane) attempted() int64 { return l.retired + int64(l.led.unanswered()) }
func (l *lane) lost() int64      { return l.failed + int64(l.led.unanswered()) }

func (l *lane) err() error {
	if l.sendErr != nil {
		return l.sendErr
	}
	return l.recvErr
}

// closedLoop sends requests back to back with at most window outstanding
// until end; each request is due the moment a retiring one frees its slot.
// Call it beside l.receive, after withWindow.
func (l *lane) closedLoop(end int64) {
	defer l.finish()
	for {
		var due int64
		select {
		case due = <-l.credits:
		case <-l.done: // the receiver is gone; nothing will free a slot
			return
		}
		if now() >= end {
			return
		}
		if err := l.send(0, due); err != nil {
			l.sendErr = err
			return
		}
	}
}

// withWindow arms closedLoop's flow control: window requests may be
// outstanding, and each retirement hands its slot back with its time.
func (l *lane) withWindow(window int) *lane {
	l.credits = make(chan int64, window) // one slot per request in flight
	for i := 0; i < window; i++ {
		l.credits <- now()
	}
	l.onRetire = func(_ *request, at int64) { l.credits <- at }
	return l
}

// makePool builds count request inputs of words words each from rng.
func makePool(rng *rand.Rand, count, words int) [][]cohort.Word {
	p := make([][]cohort.Word, count)
	for i := range p {
		p[i] = randomWords(rng, words)
	}
	return p
}
