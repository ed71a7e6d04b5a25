package hypothesis

import (
	"fmt"
	"sync"
)

// The claim registry, mirroring sched's policy registry: packages register
// their claims (normalized) at init time, tools enumerate them. Paper
// claims live in internal/experiments and register themselves when that
// package is linked in.

var (
	regMu   sync.Mutex
	regByID = map[string]Spec{}
	regIDs  []string // registration order
)

// Register validates, normalizes and registers a claim. It panics on an
// invalid or duplicate spec — registration happens at init time, where a
// bad claim is a programming error.
func Register(s Spec) {
	norm, err := s.Normalize()
	if err != nil {
		panic(err)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByID[norm.ID]; dup {
		panic(fmt.Sprintf("hypothesis: duplicate claim id %q", norm.ID))
	}
	regByID[norm.ID] = norm
	regIDs = append(regIDs, norm.ID)
}

// Registered returns every registered claim in registration order.
func Registered() []Spec {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Spec, 0, len(regIDs))
	for _, id := range regIDs {
		out = append(out, regByID[id])
	}
	return out
}

// ByID looks a registered claim up.
func ByID(id string) (Spec, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	s, ok := regByID[id]
	return s, ok
}
