package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	olap "hybridolap"
)

// shardedServer builds a sharded olapd over httptest. Auto-repair stays
// off so the drills below control exactly when re-replication happens.
func shardedServer(t *testing.T, admin bool, replication int, allowPartial bool) *httptest.Server {
	t.Helper()
	db, err := olap.Open(olap.Options{
		Rows: 4000, Seed: 5,
		Shards: 4, Replication: replication,
		AllowPartial: allowPartial,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := newServer(db, defaultMaxInflight, defaultMaxQueued)
	hs.admin = admin
	ts := httptest.NewServer(hs.mux())
	t.Cleanup(func() {
		ts.Close()
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	})
	return ts
}

// TestAdminEndpointsGated: without -admin the drill endpoints do not
// exist — 404, not 403, because they are not routed at all.
func TestAdminEndpointsGated(t *testing.T) {
	ts := shardedServer(t, false, 2, false)
	for _, path := range []string{"/admin/node/kill", "/admin/node/revive"} {
		if code := post(t, ts, path, `{"node":1}`, nil); code != http.StatusNotFound {
			t.Fatalf("%s without -admin = %d, want 404", path, code)
		}
	}
}

// TestAdminNonClustered: the drills require a sharded server.
func TestAdminNonClustered(t *testing.T) {
	db, err := olap.Open(olap.Options{Rows: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hs := newServer(db, defaultMaxInflight, defaultMaxQueued)
	hs.admin = true
	ts := httptest.NewServer(hs.mux())
	t.Cleanup(ts.Close)
	if code := post(t, ts, "/admin/node/kill", `{"node":0}`, nil); code != http.StatusConflict {
		t.Fatalf("kill on non-sharded server = %d, want 409", code)
	}
}

// TestAdminKillReviveDrill walks the full self-healing drill over HTTP:
// permanent kill -> degraded health + under-replicated gauge -> queries
// still answer in full -> revive with a synchronous repair -> healthy
// again with the repair counters on /stats telling the story.
func TestAdminKillReviveDrill(t *testing.T) {
	ts := shardedServer(t, true, 2, false)

	var hz map[string]string
	if code := get(t, ts, "/healthz", &hz); code != 200 || hz["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, hz)
	}

	// Permanent loss: node 1 held two shard replicas at RF=2.
	var nr nodeResponse
	if code := post(t, ts, "/admin/node/kill", `{"node":1,"permanent":true}`, &nr); code != 200 {
		t.Fatalf("kill = %d", code)
	}
	if nr.Status != "dead" || nr.UnderReplicatedShards != 2 {
		t.Fatalf("kill response = %+v", nr)
	}
	if code := get(t, ts, "/healthz", &hz); code != 200 || hz["status"] != "degraded" {
		t.Fatalf("healthz below RF = %d %v, want degraded", code, hz)
	}

	// Every shard still has a live holder, so answers stay FULL.
	var qv queryResponse
	if code := postQuery(t, ts, `{"sql":"SELECT count(*)"}`, &qv); code != 200 {
		t.Fatalf("query below RF = %d", code)
	}
	if qv.Rows == nil || *qv.Rows != 4000 || qv.Partial != nil {
		t.Fatalf("query below RF = %+v", qv)
	}

	var st statsResponse
	get(t, ts, "/stats", &st)
	if st.Cluster == nil || st.Cluster.NodesEvicted != 1 || st.Cluster.UnderReplicatedShards != 2 {
		t.Fatalf("stats below RF = %+v", st.Cluster)
	}

	// Revive with a synchronous repair pass: one round trip back to RF.
	if code := post(t, ts, "/admin/node/revive", `{"node":1,"repair":true}`, &nr); code != 200 {
		t.Fatalf("revive = %d", code)
	}
	if nr.Status != "revived" || nr.Repaired != 2 || nr.UnderReplicatedShards != 0 {
		t.Fatalf("revive response = %+v", nr)
	}
	if code := get(t, ts, "/healthz", &hz); code != 200 || hz["status"] != "ok" {
		t.Fatalf("healthz after repair = %d %v", code, hz)
	}
	get(t, ts, "/stats", &st)
	if st.Cluster.RepairsCompleted != 2 || st.Cluster.RepairBytesMoved <= 0 {
		t.Fatalf("repair counters = %+v", st.Cluster)
	}

	// Addressing a node outside the cluster is a request error.
	if code := post(t, ts, "/admin/node/kill", `{"node":99}`, nil); code != http.StatusBadRequest {
		t.Fatalf("kill node 99 = %d, want 400", code)
	}
	if code := post(t, ts, "/admin/node/revive", `{"node":-1}`, nil); code != http.StatusBadRequest {
		t.Fatalf("revive node -1 = %d, want 400", code)
	}
}

// TestPartialQueryHTTP pins the degraded-read wire contract: with
// -allow-partial at RF=1, losing a shard's only holder turns answers
// into 206 Partial Content with an exact completeness block.
func TestPartialQueryHTTP(t *testing.T) {
	ts := shardedServer(t, true, 1, true)
	if code := post(t, ts, "/admin/node/kill", `{"node":2}`, nil); code != 200 {
		t.Fatalf("kill = %d", code)
	}

	var qv queryResponse
	if code := postQuery(t, ts, `{"sql":"SELECT count(*)"}`, &qv); code != http.StatusPartialContent {
		t.Fatalf("scalar query = %d, want 206", code)
	}
	if qv.Partial == nil || qv.Partial.RowsAnswered != 3000 || qv.Partial.RowsTotal != 4000 ||
		len(qv.Partial.MissingShards) != 1 || qv.Partial.MissingShards[0] != 2 {
		t.Fatalf("partial block = %+v, want 3000/4000 rows missing [2]", qv.Partial)
	}
	if qv.Rows == nil || *qv.Rows != 3000 {
		t.Fatalf("partial count = %+v, want exactly the 3 live shards' 3000 rows", qv)
	}

	var gv queryResponse
	if code := postQuery(t, ts, `{"sql":"SELECT count(*) GROUP BY geo.region"}`, &gv); code != http.StatusPartialContent {
		t.Fatalf("grouped query = %d, want 206", code)
	}
	if gv.Partial == nil || gv.Partial.RowsAnswered != 3000 {
		t.Fatalf("grouped partial block = %+v", gv.Partial)
	}
	var rows int64
	for _, g := range gv.Groups {
		rows += g.Rows
	}
	if rows != 3000 {
		t.Fatalf("grouped partial rows = %d, want 3000", rows)
	}

	var st statsResponse
	get(t, ts, "/stats", &st)
	if st.Cluster == nil || st.Cluster.PartialAnswers != 2 {
		t.Fatalf("partial_answers = %+v", st.Cluster)
	}

	// Revive restores full 200 answers.
	if code := post(t, ts, "/admin/node/revive", `{"node":2}`, nil); code != 200 {
		t.Fatalf("revive = %d", code)
	}
	var full queryResponse
	if code := postQuery(t, ts, `{"sql":"SELECT count(*)"}`, &full); code != 200 || full.Partial != nil {
		t.Fatalf("query after revive = %d %+v", code, full)
	}
}
