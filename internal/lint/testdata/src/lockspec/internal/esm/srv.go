// Package esm is the stale-lock-spec fixture: the hierarchy classifies
// Server.catMu and Server.mu, but this Server's mutex was renamed to lock,
// so the spec for mu names a field that no longer exists.
package esm

import "sync"

type Server struct {
	catMu sync.Mutex
	lock  sync.Mutex
	count int
}

func (s *Server) Inc() {
	s.lock.Lock()
	s.count++
	s.lock.Unlock()
}
