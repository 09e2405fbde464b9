package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	olap "hybridolap"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	db, err := olap.Open(olap.Options{Rows: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(db))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func postQuery(t *testing.T, ts *httptest.Server, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	var v map[string]string
	if code := get(t, ts, "/healthz", &v); code != 200 || v["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, v)
	}
}

func TestSchemaEndpoint(t *testing.T) {
	ts := testServer(t)
	var v schemaResponse
	if code := get(t, ts, "/schema", &v); code != 200 {
		t.Fatalf("schema = %d", code)
	}
	if len(v.Dimensions) != 3 || len(v.Measures) != 2 || len(v.Texts) != 2 {
		t.Fatalf("schema = %+v", v)
	}
	if v.Dimensions[0].Name != "time" || len(v.Dimensions[0].Levels) != 4 {
		t.Fatalf("time dimension = %+v", v.Dimensions[0])
	}
}

func TestScalarQuery(t *testing.T) {
	ts := testServer(t)
	var v queryResponse
	code := postQuery(t, ts, `{"sql":"SELECT count(*)"}`, &v)
	if code != 200 {
		t.Fatalf("query = %d", code)
	}
	if v.Value == nil || *v.Value != 2000 || v.Rows == nil || *v.Rows != 2000 {
		t.Fatalf("response = %+v", v)
	}
	if v.Route == "" || v.LatencyMS < 0 {
		t.Fatalf("route/latency = %+v", v)
	}
}

func TestGroupedQuery(t *testing.T) {
	ts := testServer(t)
	var v queryResponse
	code := postQuery(t, ts, `{"sql":"SELECT sum(sales) GROUP BY geo.region"}`, &v)
	if code != 200 {
		t.Fatalf("query = %d", code)
	}
	if v.Value != nil || len(v.Groups) == 0 || len(v.Groups) > 4 {
		t.Fatalf("response = %+v", v)
	}
	var total int64
	for _, g := range v.Groups {
		if len(g.Labels) != 1 || !strings.HasPrefix(g.Labels[0], "geo.region=") {
			t.Fatalf("group = %+v", g)
		}
		total += g.Rows
	}
	if total != 2000 {
		t.Fatalf("rows total = %d", total)
	}
}

func TestQueryErrors(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"sql":""}`, 400},
		{`not json`, 400},
		{`{"sql":"SELECT frob(sales)"}`, 400},
		{`{"sql":"SELECT sum(sales) WHERE time.month = 999"}`, 400},
	}
	for _, c := range cases {
		if code := postQuery(t, ts, c.body, nil); code != c.want {
			t.Fatalf("body %q: code = %d, want %d", c.body, code, c.want)
		}
	}
	// GET /query is rejected.
	if code := get(t, ts, "/query", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d", code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/explain", "application/json",
		strings.NewReader(`{"sql":"SELECT sum(sales) WHERE time.year = 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("explain = %d", resp.StatusCode)
	}
	var v explainResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if !v.CPUOK || v.Decision != "cpu" || len(v.GPUSeconds) != 6 {
		t.Fatalf("explain = %+v", v)
	}
	// Explaining never executes: stats stay zero.
	var st statsResponse
	get(t, ts, "/stats", &st)
	if st.Submitted != 0 {
		t.Fatalf("explain committed %d submissions", st.Submitted)
	}
	// Bad SQL.
	resp2, err := http.Post(ts.URL+"/explain", "application/json",
		strings.NewReader(`{"sql":"frob"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Fatalf("bad explain = %d", resp2.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	// Run two queries first.
	postQuery(t, ts, `{"sql":"SELECT count(*)"}`, nil)
	postQuery(t, ts, `{"sql":"SELECT sum(sales) WHERE time.hour BETWEEN 0 AND 99"}`, nil)
	var v statsResponse
	if code := get(t, ts, "/stats", &v); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if v.Submitted < 2 || len(v.ToGPU) != 6 {
		t.Fatalf("stats = %+v", v)
	}
}

// TestStatsWhileServing reads /stats in a loop while two clients POST
// queries: the handler reads the scheduler's counters and partition health
// with no lock of its own while Serve books and settles, so under -race
// this is the check that the scheduler serialises itself. Once the
// clients are done, every booking has been settled.
func TestStatsWhileServing(t *testing.T) {
	db, err := olap.Open(olap.Options{Rows: 2000, Seed: 5, Fusion: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(db))
	t.Cleanup(ts.Close)

	const perClient = 30
	var clients sync.WaitGroup
	for c := 0; c < 2; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for i := 0; i < perClient; i++ {
				// GPU scans through the fusion window and cube walks that
				// bypass it; the result cache is off, so each is booked.
				sql := fmt.Sprintf(`{"sql":"SELECT count(*) WHERE time.day BETWEEN %d AND 250"}`, c*perClient+i)
				if i%2 == 1 {
					sql = fmt.Sprintf(`{"sql":"SELECT sum(sales) WHERE time.month BETWEEN 0 AND %d"}`, i%12)
				}
				if code := postQuery(t, ts, sql, nil); code != 200 {
					t.Errorf("client %d query %d: status %d", c, i, code)
					return
				}
			}
		}(c)
	}
	served := make(chan struct{})
	go func() {
		clients.Wait()
		close(served)
	}()
	reads := 0
	for serving := true; serving; reads++ {
		select {
		case <-served:
			serving = false
		default:
		}
		var st statsResponse
		if code := get(t, ts, "/stats", &st); code != 200 || len(st.PartitionHealth) != 6 {
			t.Fatalf("stats read %d: status %d, %+v", reads, code, st)
		}
	}

	st := db.System().Scheduler().Stats()
	if st.Submitted == 0 || st.Submitted+st.Resubmitted+st.MaintenanceJobs != st.Settled {
		t.Fatalf("after %d reads: %d submitted + %d resubmitted + %d maintenance bookings, %d settled",
			reads, st.Submitted, st.Resubmitted, st.MaintenanceJobs, st.Settled)
	}
}

func liveServer(t *testing.T, wal string) *httptest.Server {
	t.Helper()
	db, err := olap.Open(olap.Options{Rows: 2000, Seed: 5, Live: true, WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(db))
	t.Cleanup(func() {
		ts.Close()
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	})
	return ts
}

func post(t *testing.T, ts *httptest.Server, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestIngestEndpoint(t *testing.T) {
	ts := liveServer(t, "")
	// Rows become queryable in the returned epoch.
	var ir ingestResponse
	body := `{"rows":[
		{"coords":[0,0,0],"measures":[100,1],"texts":["ingested corp","metropolis"]},
		{"coords":[1,1,1],"measures":[200,2],"texts":["ingested corp","metropolis"]}]}`
	if code := post(t, ts, "/ingest", body, &ir); code != 200 {
		t.Fatalf("ingest = %d", code)
	}
	if ir.Epoch == 0 || ir.Rows != 2 {
		t.Fatalf("ingest response = %+v", ir)
	}
	var v queryResponse
	if code := postQuery(t, ts, `{"sql":"SELECT count(*)"}`, &v); code != 200 {
		t.Fatalf("query = %d", code)
	}
	if v.Rows == nil || *v.Rows != 2002 {
		t.Fatalf("count after ingest = %+v", v)
	}
	// Text predicates see the appended dictionary entry.
	if code := postQuery(t, ts, `{"sql":"SELECT sum(sales) WHERE store_name = 'ingested corp'"}`, &v); code != 200 {
		t.Fatalf("text query = %d", code)
	}
	if v.Value == nil || *v.Value != 300 || *v.Rows != 2 {
		t.Fatalf("text query = %+v", v)
	}
	// Stats expose the ingest section.
	var st statsResponse
	get(t, ts, "/stats", &st)
	if st.Ingest == nil || st.Ingest.Batches != 1 || st.Ingest.IngestedRows != 2 ||
		st.Ingest.Rows != 2002 {
		t.Fatalf("stats.ingest = %+v", st.Ingest)
	}
	// Invalid rows are rejected without advancing the epoch.
	if code := post(t, ts, "/ingest", `{"rows":[{"coords":[1],"measures":[1,1],"texts":["a","b"]}]}`, nil); code != 422 {
		t.Fatalf("bad ingest = %d", code)
	}
}

// TestQueryServingPathAcrossIngest is the cache's carry seen over HTTP: a
// cached count is still a cache answer after /ingest, with the new rows in
// it, and /stats counts the entry as carried.
func TestQueryServingPathAcrossIngest(t *testing.T) {
	db, err := olap.Open(olap.Options{Rows: 2000, Seed: 5, Live: true, Fusion: true, ResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(db))
	t.Cleanup(func() {
		ts.Close()
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	})
	const count = `{"sql":"SELECT count(*) WHERE time.day BETWEEN 0 AND 255"}`
	var v queryResponse
	if code := postQuery(t, ts, count, &v); code != 200 || v.Cached || *v.Rows != 2000 {
		t.Fatalf("first count: %d %+v", code, v)
	}
	body := `{"rows":[{"coords":[0,0,0],"measures":[100,1],"texts":["ingested corp","metropolis"]}]}`
	if code := post(t, ts, "/ingest", body, nil); code != 200 {
		t.Fatalf("ingest = %d", code)
	}
	if code := postQuery(t, ts, count, &v); code != 200 || !v.Cached || *v.Rows != 2001 {
		t.Fatalf("count after ingest: %d %+v, want a cached 2001", code, v)
	}
	var st statsResponse
	if code := get(t, ts, "/stats", &st); code != 200 || st.Cache.Carried != 1 || st.Cache.Dropped != 0 {
		t.Fatalf("stats: %d %+v", code, st.Cache)
	}
}

func TestIngestNotLive(t *testing.T) {
	ts := testServer(t)
	code := post(t, ts, "/ingest", `{"rows":[]}`, nil)
	if code != http.StatusConflict {
		t.Fatalf("ingest on static server = %d, want 409", code)
	}
}

func TestBodyTooLarge(t *testing.T) {
	ts := testServer(t)
	huge := `{"sql":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`
	for _, path := range []string{"/query", "/explain", "/ingest"} {
		if code := post(t, ts, path, huge, nil); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with oversized body = %d, want 413", path, code)
		}
	}
}

// TestQueryServingPath drives the fusion window and result cache through
// the HTTP handler: GPU-bound scalar queries run as fused jobs whose
// replies and /stats counters agree, repeats hit the cache, and /stats
// reports both. It does not require staggered HTTP arrivals to share a
// job: a window closes as soon as nobody else is inside Serve, so four
// handlers tens of microseconds apart may each fire alone (the engine's
// TestServeFusedDifferential pins fan-in K deterministically).
func TestQueryServingPath(t *testing.T) {
	db, err := olap.Open(olap.Options{
		Rows: 2000, Seed: 5,
		Fusion: true, FusionWindow: 50 * time.Millisecond,
		ResultCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(db))
	t.Cleanup(ts.Close)

	// time.day is level 2 — below the materialised cubes — so these take
	// the GPU serving path, through fusion windows.
	sqls := []string{
		`{"sql":"SELECT count(*) WHERE time.day BETWEEN 0 AND 255"}`,
		`{"sql":"SELECT sum(sales) WHERE time.day BETWEEN 10 AND 200"}`,
		`{"sql":"SELECT min(sales) WHERE time.day BETWEEN 5 AND 250"}`,
		`{"sql":"SELECT max(quantity) WHERE time.day BETWEEN 0 AND 100"}`,
	}
	type reply struct {
		resp queryResponse
		code int
	}
	replies := make([]reply, len(sqls))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, sql := range sqls {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			<-start
			replies[i].code = postQuery(t, ts, sql, &replies[i].resp)
		}(i, sql)
	}
	close(start)
	wg.Wait()
	// Every reply is a member of a fused job, and says so consistently:
	// route, flag and a fan-in between 1 and the number in flight.
	type job struct {
		route string
		fanIn int
	}
	replied := map[job]int{}
	for i, r := range replies {
		if r.code != 200 {
			t.Fatalf("query %d: status %d", i, r.code)
		}
		if !r.resp.Fused || r.resp.Cached || r.resp.FanIn < 1 || r.resp.FanIn > len(sqls) ||
			!strings.HasPrefix(r.resp.Route, "fused gpu") {
			t.Fatalf("query %d: want a fused GPU reply, got %+v", i, r.resp)
		}
		replied[job{r.resp.Route, r.resp.FanIn}]++
	}
	for j, members := range replied {
		if members%j.fanIn != 0 {
			t.Fatalf("%d replies claim to be members of %q jobs of fan-in %d", members, j.route, j.fanIn)
		}
	}

	// A repeat is served from the cache.
	var again queryResponse
	if code := postQuery(t, ts, sqls[0], &again); code != 200 || !again.Cached {
		t.Fatalf("repeat: %d %+v", code, again)
	}
	// A narrowed count subsumes from the wide entry's cells.
	var narrow queryResponse
	if code := postQuery(t, ts, `{"sql":"SELECT count(*) WHERE time.day BETWEEN 30 AND 60"}`, &narrow); code != 200 || !narrow.Subsumed {
		t.Fatalf("narrow: %d %+v", code, narrow)
	}

	var st statsResponse
	if code := get(t, ts, "/stats", &st); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	// The four misses are the only fused members; the histogram counts
	// each job once, in a bucket consistent with the members served.
	if st.Fusion.FusedMembers != int64(len(sqls)) || st.Fusion.FusedJobs < 1 || st.Fusion.FusedJobs > st.Fusion.FusedMembers {
		t.Fatalf("fusion stats: %+v", st.Fusion)
	}
	if len(st.Fusion.FanIn) != len(st.Fusion.FanInLabels) {
		t.Fatalf("fan-in histogram arity: %+v", st.Fusion)
	}
	var jobs int64
	for _, n := range st.Fusion.FanIn {
		jobs += n
	}
	if jobs != st.Fusion.FusedJobs {
		t.Fatalf("fan-in histogram sums to %d jobs, fused_jobs %d", jobs, st.Fusion.FusedJobs)
	}
	if st.Cache.Stores == 0 || st.Cache.Hits == 0 || st.Cache.SubsumptionHits == 0 {
		t.Fatalf("cache stats: %+v", st.Cache)
	}
}
