// Package esm is the lock-divergence fixture: control-flow paths merging
// with different held sets (one arm locked, the other did not), next to
// a clean both-arms shape and a suppressed deliberate case.
package esm

import "sync"

type Server struct {
	catMu sync.Mutex
	mu    sync.Mutex
	count int
}

// condLock locks on one arm only: at the merge the fast path holds mu
// and the slow path does not — violation.
func (s *Server) condLock(fast bool) {
	if fast {
		s.mu.Lock()
	}
	s.count++
	s.mu.Unlock()
}

// bothArms acquires on every path into the merge: clean.
func (s *Server) bothArms(fast bool) {
	if fast {
		s.mu.Lock()
	} else {
		s.mu.Lock()
	}
	s.count++
	s.mu.Unlock()
}

// optimistic is the deliberate variant of condLock; suppressed.
func (s *Server) optimistic(fast bool) {
	if fast {
		s.mu.Lock()
	}
	//qsvet:ignore lockorder deliberate: the slow path reads a racy snapshot and Unlock of an unheld fixture mutex never runs
	s.count++
	s.mu.Unlock()
}
