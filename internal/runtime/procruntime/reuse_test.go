package procruntime_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/optimizer"
	"dyno/internal/runtime/procruntime"
	"dyno/internal/runtime/simruntime"
	"dyno/internal/tpch"
)

// TestReusedPilotBroadcastsBuildOnce: two consecutive engines run Q8p
// over one proc fleet and one catalog, and every broadcast of the query
// is a pilot output reused as its leaf. The second engine's pilot
// outputs are new files, but views of the same base files: no worker
// builds a table for it, and its rows are the sim runtime's.
func TestReusedPilotBroadcastsBuildOnce(t *testing.T) {
	const query = "Q8p"
	ccfg := cluster.DefaultConfig()
	tw := engineTweaks{}
	gen, udf := tw.dataset()
	fleet, err := procruntime.NewFleet(procruntime.Config{StaleAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	var urls []string
	for range 2 {
		reg := expr.NewRegistry()
		tpch.RegisterUDFs(reg, udf)
		ts := httptest.NewServer(procruntime.NewWorker(reg).Handler())
		t.Cleanup(ts.Close)
		if _, err := fleet.RegisterWorkerCaps(ts.URL, fullCaps); err != nil {
			t.Fatal(err)
		}
		urls = append(urls, ts.URL)
	}
	rt := procruntime.New(fleet, ccfg)
	cat, err := tpch.Generate(rt.FS(), gen)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []data.Value {
		t.Helper()
		reg := expr.NewRegistry()
		tpch.RegisterUDFs(reg, udf)
		env := rt.NewEnv(reg)
		eng, err := baselines.NewEngine(baselines.VariantDynOpt, env, cat, optimizer.DefaultConfig(float64(ccfg.SlotMemory)), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.ExecuteSQL(tpch.MustQuerySQL(query))
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	builds := func() (n int64) {
		t.Helper()
		for _, u := range urls {
			resp, err := http.Get(u + "/status")
			if err != nil {
				t.Fatal(err)
			}
			var st procruntime.WorkerStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			n += st.TableMisses
		}
		return n
	}

	run()
	first := builds()
	if first == 0 {
		t.Fatal("the first engine built no table: the query broadcasts nothing")
	}
	rows := run()
	if again := builds(); again != first {
		t.Errorf("the second engine built %d tables, want none", again-first)
	}
	sim := runQuery(t, simruntime.New(ccfg), query, tw)
	if got, want := rowJSON(t, rows), rowJSON(t, sim.vals); got != want {
		t.Errorf("the second engine's rows differ from sim's:\nproc %s\nsim  %s", got, want)
	}
}

// rowJSON renders rows as one JSON array.
func rowJSON(t *testing.T, rows []data.Value) string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
