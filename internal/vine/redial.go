package vine

import (
	"slices"
	"sync"
	"time"

	"hepvine/internal/obs"
)

// defaultReconnectBackoff is the delay before each redial attempt unless
// WithReconnect overrides it. Mirrored as params.DefaultReconnectBackoff.
const defaultReconnectBackoff = 50 * time.Millisecond

// redialer is a control link that can outlive its peer: a worker's
// connection to its manager and a foreman's uplink to the root. It holds
// the peer address list (the dialed primary first, then WithManagers
// fallbacks, deduplicated), the WithReconnect budget, the current
// connection, and the single-flight redial state. The mutable fields
// (conn, idx, redialC) are guarded by the owner's mutex, so an owner can
// snapshot its own state together with the link's under one acquisition.
type redialer struct {
	nc       netConfig
	label    string // fault-matching dial label
	peer     string // what the link dials, for trace details
	name     string // the owner's name in trace events
	rec      *obs.Recorder
	addrs    []string
	attempts int
	backoff  time.Duration

	conn    *conn
	idx     int           // addrs index the current connection dialed
	redialC chan struct{} // non-nil while a redial is in flight
}

// redialer builds the link policy for an owner dialing primary.
func (c config) redialer(primary, label, peer string) redialer {
	backoff := c.wrk.ReconnectBackoff
	if backoff <= 0 {
		backoff = defaultReconnectBackoff
	}
	addrs := []string{primary}
	for _, a := range c.wrk.Managers {
		if a != "" && !slices.Contains(addrs, a) {
			addrs = append(addrs, a)
		}
	}
	return redialer{nc: c.netConfig(), label: label, peer: peer, rec: c.rec,
		addrs: addrs, attempts: c.wrk.ReconnectAttempts, backoff: backoff}
}

// dial connects to the first reachable address in list order, so an
// owner started during a failover window registers with whichever peer is
// up. Called before the owner starts any goroutine.
func (l *redialer) dial() error {
	var err error
	for i, a := range l.addrs {
		raw, derr := l.nc.dial(a, l.label)
		if derr == nil {
			l.conn, l.idx = newConn(raw), i
			return nil
		}
		err = derr
	}
	return err
}

// reconnect re-establishes the link after old died. Exactly one goroutine
// runs the redial (a read loop and a liveness monitor can both detect the
// loss); latecomers wait for its outcome. mu is the owner's lock, stopped
// its stop flag (read under mu) and done closed once it stops. On success
// register runs under mu with the fresh connection installed, to re-send
// the owner's hello. Reports whether the owner is registered on a fresh
// connection.
func (l *redialer) reconnect(mu *sync.Mutex, stopped *bool, done <-chan struct{}, old *conn, register func(*conn)) bool {
	mu.Lock()
	if *stopped {
		mu.Unlock()
		return false
	}
	if l.conn != old {
		// Another goroutine already swapped the connection.
		mu.Unlock()
		return true
	}
	if l.attempts <= 0 {
		mu.Unlock()
		return false
	}
	if c := l.redialC; c != nil {
		mu.Unlock()
		<-c
		mu.Lock()
		ok := !*stopped && l.conn != old
		mu.Unlock()
		return ok
	}
	flight := make(chan struct{})
	l.redialC = flight
	start := l.idx
	mu.Unlock()

	old.close()
	nc, idx := l.dialLoop(start, done)

	mu.Lock()
	defer func() {
		l.redialC = nil
		close(flight)
		mu.Unlock()
	}()
	if *stopped || nc == nil {
		if nc != nil {
			nc.close()
		}
		return false
	}
	l.conn, l.idx = nc, idx
	register(nc)
	return true
}

// dialLoop spends the redial budget, backing off before every attempt —
// even an immediately-successful dial against a half-up peer shouldn't
// spin — and cycling the address list from the last address known good:
// attempt 1 retries it, later attempts rotate through the fallbacks, so a
// failover lands within one lap. It touches only immutable fields.
func (l *redialer) dialLoop(start int, done <-chan struct{}) (*conn, int) {
	for i := 1; i <= l.attempts; i++ {
		select {
		case <-done:
			return nil, -1
		case <-time.After(l.backoff):
		}
		idx := (start + i - 1) % len(l.addrs)
		raw, err := l.nc.dial(l.addrs[idx], l.label)
		if err == nil {
			return newConn(raw), idx
		}
		l.rec.Emit(obs.Event{Type: obs.EvNetRetry, Worker: l.name, Attempt: i,
			Dur: l.backoff, Detail: l.peer + " redial " + l.addrs[idx] + ": " + err.Error()})
	}
	return nil, -1
}
