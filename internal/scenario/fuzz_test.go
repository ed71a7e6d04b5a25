package scenario

import (
	"strings"
	"testing"
)

// FuzzParseScenario asserts the scenario grammar's parse/render round
// trip: any transform chain the parser accepts must render transform names
// that re-parse, and the re-parse must be stable (idempotent — a second
// render is byte-identical to the first). Lossless round-tripping is
// pinned separately per token family (TestSLOCanonicalRoundTrip for slo=;
// burst= intentionally renders only its defining parameters). Run in CI as
// a smoke step; `go test -fuzz FuzzParseScenario ./internal/scenario` digs
// deeper.
func FuzzParseScenario(f *testing.F) {
	for _, name := range Names() {
		f.Add(name)
	}
	f.Add("load=1.5+perturb=3")
	f.Add("window=1d..8d")
	f.Add("window=90..")
	f.Add("users=top8")
	f.Add("users=3.7.11")
	f.Add("burst=at:7d.jobs:200.nodes:8.runtime:1h.spread:1h.est:2h.user:42")
	f.Add("slo=p50:2h,p90:24h")
	f.Add("slo=p50:2h,p90:1d,default:4d,user7:30m,user7:6x")
	f.Add("slo=p50:8x")
	f.Add("slo=p50:2.5x")
	f.Add("slo=p50:1000000x")
	f.Add("slo=p50:NaNx")
	f.Add("slo=p50:Infx")
	f.Add("slo=default:none")
	f.Add("slo=user12:none")
	f.Add("slo=p100:1w,p1:1s")
	f.Add("load=1.5+slo=p50:2h+window=0..4w")
	f.Add("users=top4+slo=p50:2h,default:96h")
	f.Add("pop=")
	f.Add("pop=users:100k,jobs:25k")
	f.Add("pop=users:1m,cohorts:8,churn:0.5,zipf:1.7")
	f.Add("pop=weeks:2,alpha:1.05,diurnal:1,weekly:0,maxnodes:128")
	f.Add("pop=users:0")
	f.Add("pop=zipf:NaN")
	f.Add("pop=users:100k+load=1.5")
	f.Add("queue=p50:org/a,default:org/b")
	f.Add("queue=p10:org/b,p60:org/a,user3:org/b+slo=p25:1h,p75:8x,user5:none")
	f.Add("partition=p30:b,default:a")
	f.Add("partition=p70:a,user2:b")
	f.Add("users=top20+queue=p50:x,default:y")
	f.Add("partition=p50:a/b")
	f.Add("pop=users:99151249396188840m")
	f.Add("window=15250284452471w..15250284452472w")
	f.Add("burst=at:15250284452472w.jobs:1.nodes:1.runtime:1h")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		for _, tr := range s.Transforms {
			name := tr.Name()
			re, err := ParseTransform(name)
			if err != nil {
				t.Fatalf("transform name %q (from %q) does not re-parse: %v", name, in, err)
			}
			if re.Name() != name {
				t.Fatalf("transform render unstable: %q -> %q (from %q)", name, re.Name(), in)
			}
		}
		// The rejoined chain must itself parse (chains compose).
		if len(s.Transforms) > 0 {
			parts := make([]string, len(s.Transforms))
			for i, tr := range s.Transforms {
				parts[i] = tr.Name()
			}
			if _, err := Parse(strings.Join(parts, "+")); err != nil {
				t.Fatalf("rejoined chain of %q does not parse: %v", in, err)
			}
		}
	})
}

// FuzzParsePop asserts the pop= axis's stronger contract: the canonical
// Name is fully explicit, so for any accepted value the render is LOSSLESS —
// re-parsing it reproduces the identical Pop, and every accepted Pop passes
// the range validation that keeps it generatable.
func FuzzParsePop(f *testing.F) {
	f.Add("")
	f.Add("users:100k,jobs:25k")
	f.Add("users:1m,cohorts:8,churn:0.5,zipf:1.7,alpha:1.1")
	f.Add("weeks:2,diurnal:1,weekly:0,maxnodes:128")
	f.Add("users:8000001")
	f.Add("churn:-1")
	f.Add("zipf:NaN")
	f.Add("alpha:Inf")
	f.Add("users:1k,users:2k") // last key wins
	f.Add("users:99151249396188840m")
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ParsePop(in)
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		name := p.Name()
		val, ok := strings.CutPrefix(name, "pop=")
		if !ok {
			t.Fatalf("Pop name %q (from %q) lost its pop= prefix", name, in)
		}
		re, err := ParsePop(val)
		if err != nil {
			t.Fatalf("canonical value %q (from %q) does not re-parse: %v", val, in, err)
		}
		if re != p {
			t.Fatalf("lossy render: %q parsed %+v, re-parsed %+v", in, p, re)
		}
		if tr, err := ParseTransform(name); err != nil {
			t.Fatalf("name %q does not parse as a transform: %v", name, err)
		} else if tr.Name() != name {
			t.Fatalf("transform render unstable: %q -> %q", name, tr.Name())
		}
	})
}
