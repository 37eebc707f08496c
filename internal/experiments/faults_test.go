package experiments

import (
	"sync"
	"testing"
)

// faultsTestConfig pins the experiment's shipped deterministic
// configuration (the default seed) at the reduced test scale; the
// sweep's MO-vs-SO contrast is a property of this fixed configuration,
// not a statistical claim over seeds.
func faultsTestConfig() Config {
	cfg := testConfig()
	cfg.Seed = DefaultConfig().Seed
	return cfg
}

// q8pFaults is the one fault sweep the tests measure, over Q8', whose
// plan has concurrent ready jobs (on single-chain plans the strategies
// coincide and the MO-vs-SO comparison is vacuous). Both tests below
// read it; whichever runs first pays for it.
var q8pFaults = sync.OnceValues(func() ([]faultPoint, error) {
	return measureFaultsQueries(faultsTestConfig(), []string{"Q8p"})
})

// TestFaultsSOLosesLessWork checks the sweep's headline (§5.3): under
// injected failures and stragglers, the single-job strategy (SO) loses
// less work — wasted slot seconds from failed and superseded attempts
// — than the flood-everything strategy (MO), whose concurrent jobs
// saturate the small cluster and starve retries and speculative
// backups of slots.
func TestFaultsSOLosesLessWork(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	points, err := q8pFaults()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]faultPoint{}
	for _, p := range points {
		byKey[p.Profile+"/"+p.Strategy] = p
	}
	for _, s := range []string{"MO", "SO"} {
		if w := byKey["none/"+s].Wasted; w != 0 {
			t.Errorf("clean run should waste nothing, %s wasted %v", s, w)
		}
	}
	for _, profile := range []string{"light", "heavy"} {
		mo, so := byKey[profile+"/MO"], byKey[profile+"/SO"]
		if mo.Wasted <= 0 || so.Wasted <= 0 {
			t.Fatalf("%s: no waste recorded (MO %v, SO %v)", profile, mo.Wasted, so.Wasted)
		}
		if so.Wasted >= mo.Wasted {
			t.Errorf("%s: SO should lose less work than MO (SO %v, MO %v)",
				profile, so.Wasted, mo.Wasted)
		}
		if mo.TotalSec <= byKey["none/MO"].TotalSec || so.TotalSec <= byKey["none/SO"].TotalSec {
			t.Errorf("%s: faults should cost runtime (MO %v vs %v, SO %v vs %v)",
				profile, mo.TotalSec, byKey["none/MO"].TotalSec,
				so.TotalSec, byKey["none/SO"].TotalSec)
		}
	}
	for _, s := range []string{"MO", "SO"} {
		if byKey["heavy/"+s].Wasted <= byKey["light/"+s].Wasted {
			t.Errorf("%s: waste should grow with the fault rate: light %v heavy %v",
				s, byKey["light/"+s].Wasted, byKey["heavy/"+s].Wasted)
		}
	}
}

// TestFaultsTableRenders renders the table from the same sweep: one
// row per fault profile.
func TestFaultsTableRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	points, err := q8pFaults()
	if err != nil {
		t.Fatal(err)
	}
	tb := faultsTable([]string{"Q8p"}, points)
	if len(tb.Rows) != len(faultProfiles) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(faultProfiles))
	}
	if tb.String() == "" {
		t.Error("unrenderable table")
	}
}
