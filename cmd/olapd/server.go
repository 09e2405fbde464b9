package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync/atomic"

	olap "hybridolap"
	"hybridolap/internal/cluster"
	"hybridolap/internal/engine"
	"hybridolap/internal/ingest"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// maxBodyBytes caps POST bodies: queries are small, and even a generous
// ingest batch fits well under 8 MiB. Larger bodies get 413.
const maxBodyBytes = 8 << 20

// Admission-control defaults: how many expensive requests (/query,
// /explain, /ingest) may execute at once, and how many more may wait for
// a slot before the server starts shedding load with 429s.
const (
	defaultMaxInflight = 64
	defaultMaxQueued   = 128
)

// server wraps a DB with the HTTP API.
type server struct {
	db *olap.DB
	// inflight is the execution-slot semaphore for the expensive
	// endpoints; queued counts requests waiting for a slot. Past the
	// maxQueued watermark new arrivals are rejected with 429.
	inflight  chan struct{}
	queued    atomic.Int64
	maxQueued int64
	// admin gates the chaos-drill endpoints (POST /admin/node/kill,
	// /admin/node/revive); off by default — killing nodes over HTTP is a
	// drill tool, not a serving feature.
	admin bool
}

// admit reserves an execution slot, queueing up to the watermark. It
// reports whether the handler may proceed; on false the response (429
// with Retry-After, or nothing if the client vanished) has been written.
// Callers that got true must call release.
func (s *server) admit(w http.ResponseWriter, r *http.Request) bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
	}
	if s.queued.Add(1) > s.maxQueued {
		s.queued.Add(-1)
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests,
			fmt.Errorf("server saturated: %d requests in flight and %d queued", cap(s.inflight), s.maxQueued))
		return false
	}
	defer s.queued.Add(-1)
	select {
	case s.inflight <- struct{}{}:
		return true
	case <-r.Context().Done():
		// Client gave up while queued; nothing useful to write.
		return false
	}
}

func (s *server) release() { <-s.inflight }

// newMux builds the API routes:
//
//	GET  /healthz       liveness
//	GET  /schema        dimensions, levels, measures, text columns
//	GET  /stats         scheduler + ingest statistics
//	POST /query         {"sql": "..."} -> scalar or grouped answer
//	POST /explain       {"sql": "..."} -> estimates + hypothetical placement
//	POST /ingest        {"rows": [...]} -> epoch the batch became visible in
//
// With the -admin flag a sharded server additionally exposes the
// chaos-drill endpoints:
//
//	POST /admin/node/kill    {"node": 1, "permanent": true}
//	POST /admin/node/revive  {"node": 1, "repair": true}
func newMux(db *olap.DB) *http.ServeMux {
	return newServer(db, defaultMaxInflight, defaultMaxQueued).mux()
}

// newServer builds the handler with explicit admission-control limits.
func newServer(db *olap.DB, maxInflight, maxQueued int) *server {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueued < 0 {
		maxQueued = 0
	}
	return &server{
		db:        db,
		inflight:  make(chan struct{}, maxInflight),
		maxQueued: int64(maxQueued),
	}
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/schema", s.handleSchema)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/ingest", s.handleIngest)
	if s.admin {
		mux.HandleFunc("POST /admin/node/kill", s.handleNodeKill)
		mux.HandleFunc("POST /admin/node/revive", s.handleNodeRevive)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; all that is left is making the failure visible.
		log.Printf("olapd: encoding response: %v", err)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeBody decodes a JSON POST body capped at maxBodyBytes, writing the
// appropriate error response (413 on overflow) and reporting whether the
// handler may proceed.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness stays 200 even degraded — the process is up and queries
	// work; the status string says what capacity is gone: a live store's
	// write path (durability failure) or a sharded cluster running with
	// at least one shard below the replication factor.
	status := "ok"
	if s.db.Degraded() {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

type schemaLevel struct {
	Name        string `json:"name"`
	Cardinality int    `json:"cardinality"`
}

type schemaDim struct {
	Name   string        `json:"name"`
	Levels []schemaLevel `json:"levels"`
}

type schemaResponse struct {
	Dimensions []schemaDim `json:"dimensions"`
	Measures   []string    `json:"measures"`
	Texts      []string    `json:"text_columns"`
}

func (s *server) handleSchema(w http.ResponseWriter, r *http.Request) {
	sc := s.db.Schema()
	resp := schemaResponse{}
	for _, d := range sc.Dimensions {
		sd := schemaDim{Name: d.Name}
		for _, l := range d.Levels {
			sd.Levels = append(sd.Levels, schemaLevel{Name: l.Name, Cardinality: l.Cardinality})
		}
		resp.Dimensions = append(resp.Dimensions, sd)
	}
	for _, m := range sc.Measures {
		resp.Measures = append(resp.Measures, m.Name)
	}
	for _, t := range sc.Texts {
		resp.Texts = append(resp.Texts, t.Name)
	}
	writeJSON(w, http.StatusOK, resp)
}

type fusionStats struct {
	FusedJobs    int64    `json:"fused_jobs"`
	FusedMembers int64    `json:"fused_members"`
	Fallbacks    int64    `json:"fallbacks"`
	FanInLabels  []string `json:"fan_in_labels"`
	FanIn        []int64  `json:"fan_in"`
}

// statsResponse is the /stats body. The cache, ingest and cluster
// sections are the layers' own snapshot types: their JSON tags are the
// wire names, and a sharded server fills only Cluster (per-query
// scheduler counters live on each node).
type statsResponse struct {
	Submitted         int64             `json:"submitted"`
	Resubmitted       int64             `json:"resubmitted"`
	ToCPU             int64             `json:"to_cpu"`
	ToGPU             []int64           `json:"to_gpu"`
	Translated        int64             `json:"translated"`
	PredictedLate     int64             `json:"predicted_late"`
	MaintenanceJobs   int64             `json:"maintenance_jobs"`
	PartitionFailures int64             `json:"partition_failures"`
	Quarantines       int64             `json:"quarantines"`
	Reprobes          int64             `json:"reprobes"`
	PartitionHealth   []string          `json:"partition_health"`
	Fusion            fusionStats       `json:"fusion"`
	Cache             engine.CacheStats `json:"cache"`
	Ingest            *ingest.Stats     `json:"ingest,omitempty"`
	Cluster           *cluster.Stats    `json:"cluster,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if cs, ok := s.db.ClusterStats(); ok {
		writeJSON(w, http.StatusOK, statsResponse{Cluster: &cs})
		return
	}
	st := s.db.System().Scheduler().Stats()
	resp := statsResponse{
		Submitted:         st.Submitted,
		Resubmitted:       st.Resubmitted,
		ToCPU:             st.ToCPU,
		ToGPU:             st.ToGPU,
		Translated:        st.Translated,
		PredictedLate:     st.PredictedLate,
		MaintenanceJobs:   st.MaintenanceJobs,
		PartitionFailures: st.PartitionFailures,
		Quarantines:       st.Quarantines,
		Reprobes:          st.Reprobes,
	}
	for _, h := range s.db.System().Scheduler().HealthStates() {
		resp.PartitionHealth = append(resp.PartitionHealth, h.String())
	}
	resp.Fusion = fusionStats{
		FusedJobs:    st.FusedJobs,
		FusedMembers: st.FusedMembers,
		Fallbacks:    s.db.System().FusionFallbacks(),
		FanInLabels:  sched.FanInBucketLabels,
		FanIn:        st.FusionFanIn,
	}
	resp.Cache = s.db.CacheStats()
	if s.db.System().Live() != nil {
		ist := s.db.IngestStats()
		resp.Ingest = &ist
	}
	writeJSON(w, http.StatusOK, resp)
}

type ingestRow struct {
	Coords   []int     `json:"coords"`
	Measures []float64 `json:"measures"`
	Texts    []string  `json:"texts"`
}

type ingestRequest struct {
	Rows []ingestRow `json:"rows"`
}

type ingestResponse struct {
	Epoch uint64 `json:"epoch"`
	Rows  int    `json:"rows"`
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	var req ingestRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if s.db.Clustered() {
		writeErr(w, http.StatusConflict, fmt.Errorf("sharded server is static; ingest is unsupported with -shards"))
		return
	}
	if s.db.System().Live() == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("server is not live (start with -live or -wal)"))
		return
	}
	rows := make([]table.Row, len(req.Rows))
	for i, rr := range req.Rows {
		rows[i] = table.Row{Coords: rr.Coords, Measures: rr.Measures, Texts: rr.Texts}
	}
	epoch, err := s.db.Ingest(rows)
	if err != nil {
		// Durability failures (the batch that broke the WAL, and every
		// write after the store flipped read-only) are the server's fault,
		// not the request's: 503, retry against a recovered instance.
		var durability *ingest.DurabilityError
		if errors.Is(err, ingest.ErrDegraded) || errors.As(err, &durability) {
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Epoch: epoch, Rows: len(rows)})
}

type queryRequest struct {
	SQL string `json:"sql"`
}

type groupRow struct {
	Labels []string `json:"labels"`
	Value  float64  `json:"value"`
	Rows   int64    `json:"rows"`
}

type queryResponse struct {
	Value  *float64   `json:"value,omitempty"`
	Rows   *int64     `json:"rows,omitempty"`
	Groups []groupRow `json:"groups,omitempty"`
	Route  string     `json:"route"`
	// Serving-path markers: shared-scan membership and result-cache hits.
	Fused    bool `json:"fused,omitempty"`
	FanIn    int  `json:"fan_in,omitempty"`
	Cached   bool `json:"cached,omitempty"`
	Subsumed bool `json:"subsumed,omitempty"`
	// Partial is present exactly when the answer is degraded (sharded
	// servers with -allow-partial): how many of the table's rows the
	// answer covers and which shards were unavailable. Such responses
	// are served with status 206 instead of 200.
	Partial   *cluster.Completeness `json:"partial,omitempty"`
	LatencyMS float64               `json:"latency_ms"`
}

type explainResponse struct {
	Resolution      int       `json:"resolution"`
	ColumnsAccessed int       `json:"columns_accessed"`
	SubCubeBytes    int64     `json:"sub_cube_bytes"`
	CPUOK           bool      `json:"cpu_ok"`
	CPUSeconds      float64   `json:"cpu_seconds"`
	GPUSeconds      []float64 `json:"gpu_seconds"`
	TransSeconds    float64   `json:"trans_seconds"`
	Decision        string    `json:"decision"`
	MeetsDeadline   bool      `json:"meets_deadline"`
	Reason          string    `json:"reason"`
}

func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ex, err := s.db.Explain(req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, explainResponse{
		Resolution:      ex.Resolution,
		ColumnsAccessed: ex.ColumnsAccessed,
		SubCubeBytes:    ex.SubCubeBytes,
		CPUOK:           ex.Estimates.CPUOK,
		CPUSeconds:      ex.Estimates.CPUSeconds,
		GPUSeconds:      ex.Estimates.GPUSeconds,
		TransSeconds:    ex.Estimates.TransSeconds,
		Decision:        ex.Decision.Queue.String(),
		MeetsDeadline:   ex.Decision.MeetsDeadline,
		Reason:          ex.Reason,
	})
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing sql"))
		return
	}
	q, err := s.db.Parse(req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Every query takes the serving path: concurrent compatible scalar
	// requests admitted by the semaphore fuse into shared scans, and
	// repeated ones are answered from the result cache. With -fusion=false
	// and -cache=false this is equivalent to Run.
	res, err := s.db.Serve(q)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	resp := queryResponse{
		Route: res.Route.Kind,
		Fused: res.Route.Fused, FanIn: res.Route.FanIn,
		Cached: res.Route.Cached, Subsumed: res.Route.Subsumed,
		Partial:   res.Route.Partial,
		LatencyMS: res.Latency.Seconds() * 1000,
	}
	if q.Grouped() {
		for _, g := range res.Groups {
			resp.Groups = append(resp.Groups, groupRow{Labels: g.Labels, Value: g.Value, Rows: g.Rows})
		}
	} else {
		resp.Value, resp.Rows = &res.Value, &res.Rows
	}
	writeJSON(w, statusFor(resp.Partial), resp)
}

// statusFor picks the query status code: a degraded answer is served —
// it is still an answer — but as 206 Partial Content, so clients that
// only check the status cannot mistake it for a complete one.
func statusFor(p *cluster.Completeness) int {
	if p != nil {
		return http.StatusPartialContent
	}
	return http.StatusOK
}

// nodeRequest addresses one cluster node for the admin drill endpoints.
type nodeRequest struct {
	Node int `json:"node"`
	// Permanent (kill only) skips the grace period and declares the node
	// dead immediately — the deterministic permanent-loss drill.
	Permanent bool `json:"permanent,omitempty"`
	// Repair (revive only) runs a synchronous repair pass after the
	// revive, so a drill can restore RF in one round trip.
	Repair bool `json:"repair,omitempty"`
}

type nodeResponse struct {
	Node                  int    `json:"node"`
	Status                string `json:"status"`
	UnderReplicatedShards int    `json:"under_replicated_shards"`
	Repaired              int    `json:"repaired,omitempty"`
}

// clusterFor resolves the coordinator for an admin request, writing 409
// when the server is not sharded.
func (s *server) clusterFor(w http.ResponseWriter, node int) (ok bool) {
	if !s.db.Clustered() {
		writeErr(w, http.StatusConflict, fmt.Errorf("admin node endpoints require a sharded server (-shards > 1)"))
		return false
	}
	if node < 0 || node >= s.db.Cluster().Shards() {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("node %d out of range [0,%d)", node, s.db.Cluster().Shards()))
		return false
	}
	return true
}

func (s *server) handleNodeKill(w http.ResponseWriter, r *http.Request) {
	var req nodeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !s.clusterFor(w, req.Node) {
		return
	}
	cl := s.db.Cluster()
	status := "killed"
	var err error
	if req.Permanent {
		status = "dead"
		err = cl.DeclareDead(req.Node)
	} else {
		err = cl.KillNode(req.Node)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, nodeResponse{
		Node: req.Node, Status: status,
		UnderReplicatedShards: len(cl.UnderReplicated()),
	})
}

func (s *server) handleNodeRevive(w http.ResponseWriter, r *http.Request) {
	var req nodeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !s.clusterFor(w, req.Node) {
		return
	}
	cl := s.db.Cluster()
	if err := cl.ReviveNode(req.Node); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := nodeResponse{Node: req.Node, Status: "revived"}
	if req.Repair {
		n, err := cl.Repair()
		resp.Repaired = n
		if err != nil {
			resp.Status = "revived; repair incomplete: " + err.Error()
		}
	}
	resp.UnderReplicatedShards = len(cl.UnderReplicated())
	writeJSON(w, http.StatusOK, resp)
}
