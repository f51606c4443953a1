// Package esm is the staleignore fixture: a module clean under every
// analyzer, carrying one directive that suppresses nothing.
package esm

type Counter struct {
	count int
}

func (s *Counter) Inc() {
	//qsvet:ignore mustcheck left over from a deleted discard; nothing here to suppress
	s.count++
}
