package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"timedice/internal/engine"
	"timedice/internal/obs"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("Content-Type")
}

// TestServerEndpoints boots the exposition server on an ephemeral port and
// exercises every route the -http flag promises.
func TestServerEndpoints(t *testing.T) {
	p := obs.NewProgress("unittest", 50)
	p.TrialStart()
	p.TrialDone(1234, 2, 3*time.Millisecond)
	p.AddCache(8, 2)
	p.AddEngine(&engine.Counters{Decisions: 100, ArenaBytesTouched: 6400, FixpointIters: 250, InterferenceTerms: 900})

	srv, err := obs.StartServer("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	body, ct := get(t, base+"/healthz")
	if body != "ok\n" || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/healthz = %q (%s)", body, ct)
	}

	body, ct = get(t, base+"/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"timedice_campaign_scenarios_total 50",
		"timedice_campaign_scenarios_done 1",
		"timedice_campaign_violations_total 2",
		"timedice_campaign_events_total 1234",
		"timedice_cache_hits_total 8",
		"timedice_cache_misses_total 2",
		"timedice_cache_hit_ratio 0.8",
		"timedice_engine_steps_total 100",
		"timedice_engine_arena_bytes_total 6400",
		"timedice_engine_arena_bytes_per_step 64",
		"timedice_engine_fixpoint_iters_total 250",
		"timedice_engine_interference_terms_total 900",
		`timedice_trial_seconds{quantile="0.5"}`,
		"timedice_runner_workers_active",
		"go_heap_alloc_bytes",
		"go_goroutines",
		"# TYPE timedice_campaign_violations_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	body, ct = get(t, base+"/statusz")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/statusz content type %q", ct)
	}
	var st obs.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/statusz not a Status document: %v\n%s", err, body)
	}
	if st.Tool != "unittest" || st.Done != 1 || st.Events != 1234 {
		t.Fatalf("/statusz = %+v", st)
	}

	// pprof is mounted: the index and one profile endpoint answer.
	if body, _ = get(t, base+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatal("/debug/pprof/ index does not list profiles")
	}
	if body, _ = get(t, base+"/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine") {
		t.Fatal("/debug/pprof/goroutine returned no stacks")
	}
}

// TestServerNilProgress: a server without campaign progress still serves
// process metrics, pprof, and an empty statusz.
func TestServerNilProgress(t *testing.T) {
	srv, err := obs.StartServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	body, _ := get(t, base+"/metrics")
	if strings.Contains(body, "timedice_campaign_") {
		t.Fatal("campaign metrics present without a Progress")
	}
	if !strings.Contains(body, "go_heap_alloc_bytes") {
		t.Fatal("process metrics absent")
	}
	if body, _ = get(t, base+"/statusz"); strings.TrimSpace(body) != "{}" {
		t.Fatalf("/statusz = %q, want {}", body)
	}
}

// TestServerDisabled: the empty addr is the off switch, and the nil server
// it returns absorbs Close and Addr.
func TestServerDisabled(t *testing.T) {
	srv, err := obs.StartServer("", nil)
	if err != nil || srv != nil {
		t.Fatalf("StartServer(\"\") = (%v, %v), want (nil, nil)", srv, err)
	}
	if srv.Addr() != "" || srv.Close() != nil {
		t.Fatal("nil server must be inert")
	}
}

// TestServerAddrInUse: a listen failure surfaces as an error, not a panic.
func TestServerAddrInUse(t *testing.T) {
	a, err := obs.StartServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := obs.StartServer(a.Addr(), nil); err == nil {
		t.Fatal("second listen on the same address unexpectedly succeeded")
	} else if !strings.Contains(fmt.Sprint(err), a.Addr()) {
		t.Fatalf("listen error %v does not name the address", err)
	}
}
