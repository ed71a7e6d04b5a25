package experiments_test

import (
	"slices"
	"strings"
	"testing"

	"fairsched/internal/experiments"
	"fairsched/internal/sched"
)

// TestListPoliciesGrammarNamesEveryToken: the grammar block of
// -list-policies offers every token the parser accepts for order=, bf= and
// preempt= (triggers and victims alike).
func TestListPoliciesGrammarNamesEveryToken(t *testing.T) {
	var b strings.Builder
	experiments.ListPolicies(&b)
	_, grammar, ok := strings.Cut(b.String(), "Ad-hoc chains")
	if !ok {
		t.Fatalf("listing has no grammar block:\n%s", b.String())
	}
	for _, c := range []struct {
		key  string
		want []string
	}{
		{"order", sched.OrderNames()},
		{"bf", sched.BackfillNames()},
		{"preempt", append(sched.PreemptTriggers(), sched.PreemptVictims()...)},
	} {
		i := strings.Index(grammar, "\n  "+c.key+"=")
		if i < 0 {
			t.Errorf("grammar block has no %s= line:\n%s", c.key, grammar)
			continue
		}
		syntax := strings.Fields(grammar[i+len(c.key)+4:])[0]
		listed := strings.FieldsFunc(syntax, func(r rune) bool { return strings.ContainsRune("|[].", r) })
		for _, tok := range c.want {
			if !slices.Contains(listed, tok) {
				t.Errorf("%s= line %q omits %q", c.key, syntax, tok)
			}
		}
	}
}
