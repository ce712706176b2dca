package vine

import (
	"errors"
	"fmt"
	"time"

	"hepvine/internal/obs"
)

// Service hooks: the exported surface the multi-tenant gate
// (internal/gate) builds on. Three capabilities live here:
//
//   - SubmitShared — submit-by-spec with cross-client result sharing: a
//     definition another client already submitted (this incarnation or a
//     replayed journal) is served from the existing execution instead of
//     scheduling a second one. Content-addressed task identity makes this
//     safe: identical definitions produce identically named outputs.
//   - Drain — stop admitting fresh work while in-flight tasks finish, the
//     first half of a graceful service shutdown (Stop syncs and exits).
//   - Introspection — Draining, InFlight, and TaskHandle.FirstDispatch
//     (manager.go), the facts a front door needs for admission decisions
//     and latency accounting.

// ErrDraining is returned by Submit/SubmitShared once Drain has been
// called: the manager finishes what it has but admits nothing new.
// Dedupe hits are still served — they schedule nothing.
var ErrDraining = errors.New("vine: manager draining")

// SubmitShared submits a task with cross-client result dedupe. If an
// identical definition (same mode, library, function, args, and input
// cachenames) requesting the same outputs was already submitted — by any
// client of this manager, or in a journaled previous incarnation — the
// existing handle is returned and shared reports true: nothing new is
// scheduled. A completed original with every output still live is a warm
// hit in the usual sense; a still-running original simply gains another
// waiter; a completed original whose outputs were lost regenerates
// through lineage on first fetch. Only a terminally failed original (or
// an output-set mismatch) falls through to a fresh submission.
//
// Callers that share handles must treat them as read-mostly: Wait, Done,
// Output, and the introspection getters are safe from any number of
// goroutines.
func (m *Manager) SubmitShared(t Task) (*TaskHandle, bool, error) {
	t, defHash, err := prepareTask(t)
	if err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return nil, false, fmt.Errorf("vine: manager stopped")
	}
	if old, ok := m.live[defHash]; ok && old.state != TaskFailed && m.outputsMatchLocked(old, t.Outputs) {
		if h := m.warmHitLocked(old, defHash, t.Outputs); h != nil {
			return h, true, nil
		}
		// In flight: the second submitter becomes another waiter on the
		// one execution — the racing-cold-cluster case.
		m.rec.Emit(obs.Event{Type: obs.EvWarmHit, Task: old.label(), Detail: defHash + ": deduped onto in-flight execution"})
		return old.handle, true, nil
	}
	if h := m.warmHitLocked(m.replayed[defHash], defHash, t.Outputs); h != nil {
		return h, true, nil
	}
	if m.draining {
		return nil, false, ErrDraining
	}
	h, err := m.submitFreshLocked(t, defHash)
	return h, false, err
}

// Drain stops admission — Submit and SubmitShared return ErrDraining for
// anything that would schedule fresh work, though dedupe hits are still
// served — and blocks until every submitted task has reached a terminal
// state or the timeout elapses (0 = wait forever). Draining is one-way;
// the usual sequel is Stop, which syncs the journal and exits.
func (m *Manager) Drain(timeout time.Duration) error {
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	for {
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return nil
		}
		pending := 0
		for _, rec := range m.tasks {
			if rec.state != TaskDone && rec.state != TaskFailed {
				pending++
			}
		}
		ch := m.change
		m.mu.Unlock()
		if pending == 0 {
			return nil
		}
		select {
		case <-ch:
		case <-deadline:
			return fmt.Errorf("vine: drain timed out with %d tasks in flight", pending)
		}
	}
}

// Draining reports whether Drain has been called.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// InFlight counts tasks not yet in a terminal state — the backlog an
// operator watches while a drain runs.
func (m *Manager) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, rec := range m.tasks {
		if rec.state != TaskDone && rec.state != TaskFailed {
			n++
		}
	}
	return n
}
