package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	olap "hybridolap"
	"hybridolap/internal/cluster"
	"hybridolap/internal/ingest"
	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

// answer is what a client observes for one query, whichever transport
// produced it.
type answer struct {
	value   float64
	rows    int64
	groups  []groupAnswer // grouped queries only
	cached  bool
	refused bool // HTTP 429: shed by admission control
	// serverMS and bytes are the latency olapd reports in the response
	// body and the body's size (HTTP only).
	serverMS float64
	bytes    int
}

type groupAnswer struct {
	value float64
	rows  int64
}

// counters is one snapshot of every layer counter the benchmark reads,
// from the public accessors in process or from olapd's GET /stats (whose
// JSON field names the tags follow).
type counters struct {
	Submitted     int64   `json:"submitted"`
	Resubmitted   int64   `json:"resubmitted"`
	ToCPU         int64   `json:"to_cpu"`
	ToGPU         []int64 `json:"to_gpu"`
	PredictedLate int64   `json:"predicted_late"`
	Fusion        struct {
		FusedJobs    int64 `json:"fused_jobs"`
		FusedMembers int64 `json:"fused_members"`
		Fallbacks    int64 `json:"fallbacks"`
	} `json:"fusion"`
	Cache struct {
		Hits               int64 `json:"hits"`
		Misses             int64 `json:"misses"`
		SubsumptionHits    int64 `json:"subsumption_hits"`
		EpochInvalidations int64 `json:"epoch_invalidations"`
		Evictions          int64 `json:"evictions"`
	} `json:"cache"`
	ingest  ingest.Stats
	cluster cluster.Stats
}

// sut is one freshly opened system under test: an in-process database or
// a spawned olapd. Exactly one of db/child is set.
type sut struct {
	w      *workload
	db     *olap.DB
	child  *exec.Cmd
	base   string // olapd base URL
	client *http.Client
	schema *table.Schema
	wal    string // ingest_live: the append log of this open
}

// env is what a run needs from its surroundings: a private temp dir
// (removed by main on every exit path) and the olapd binary.
type env struct {
	tmp   string
	olapd string
}

// openSUT opens w's system at rows rows and returns how long that took:
// olap.Open wall time, or olapd spawn to first /healthz 200.
func openSUT(ctx context.Context, w *workload, rows int, e env) (*sut, time.Duration, error) {
	s := &sut{w: w}
	if w.http {
		t0 := time.Now()
		if err := s.spawn(ctx, rows, e); err != nil {
			return nil, 0, err
		}
		took := time.Since(t0)
		sc := table.PaperSchema()
		s.schema = &sc
		return s, took, nil
	}
	opts := w.opts
	opts.Rows, opts.Seed = rows, dataSeed
	if w.ingest {
		// A fresh append log per open: an existing one would be replayed.
		f, err := os.CreateTemp(e.tmp, "ingest-*.wal")
		if err != nil {
			return nil, 0, err
		}
		s.wal = f.Name()
		if err := f.Close(); err != nil {
			return nil, 0, err
		}
		opts.WALPath = s.wal
	}
	t0 := time.Now()
	db, err := olap.Open(opts)
	took := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: open: %w", w.name, err)
	}
	s.db, s.schema = db, db.Schema()
	return s, took, nil
}

// spawn starts olapd on a free loopback port and waits for /healthz.
func (s *sut) spawn(ctx context.Context, rows int, e env) error {
	// Listen-and-close finds a free port; olapd binds it a moment later.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, e.olapd, "-addr", addr,
		"-rows", strconv.Itoa(rows), "-seed", strconv.Itoa(dataSeed))
	// A cancelled run stops the child the way an operator would.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGINT) }
	cmd.WaitDelay = 15 * time.Second
	logf, err := os.Create(filepath.Join(e.tmp, "olapd.log"))
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting olapd: %w", err)
	}
	s.child, s.base = cmd, "http://"+addr
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
		Timeout:   30 * time.Second,
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			_ = s.close()
			return fmt.Errorf("olapd on %s never became healthy (see %s)", addr, logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close stops the system: Close in process; SIGINT and wait for olapd.
func (s *sut) close() error {
	if s.db != nil {
		return s.db.Close()
	}
	if s.child == nil {
		return nil
	}
	s.client.CloseIdleConnections()
	_ = s.child.Process.Signal(syscall.SIGINT)
	err := s.child.Wait()
	s.child = nil
	if err != nil {
		return fmt.Errorf("olapd exit: %w", err)
	}
	return nil
}

// newGen is the generator constructor newStream needs; olapd's twin
// schema is enough for the dashboard stream, the only one HTTP serves.
func (s *sut) newGen(cfg query.GenConfig) (*query.Generator, error) {
	if s.db == nil {
		return nil, fmt.Errorf("%s: no in-process database to bind a generator to", s.w.name)
	}
	return s.db.NewGenerator(cfg)
}

// issue is the root call the benchmark times: SQL text in, answer out.
func (s *sut) issue(sql string, grouped bool) (answer, error) {
	switch {
	case s.db == nil:
		return s.post(sql)
	case grouped:
		rows, _, err := s.db.QueryGroups(sql)
		if err != nil {
			return answer{}, err
		}
		a := answer{groups: make([]groupAnswer, len(rows))}
		for i, r := range rows {
			a.groups[i] = groupAnswer{r.Value, r.Rows}
		}
		return a, nil
	case s.db.Clustered():
		r, err := s.db.Query(sql)
		return answer{value: r.Value, rows: r.Rows}, err
	default:
		r, err := s.db.ServeQuery(sql)
		return answer{value: r.Value, rows: r.Rows, cached: r.Route.Cached}, err
	}
}

type httpQueryResponse struct {
	Value     *float64 `json:"value"`
	Rows      *int64   `json:"rows"`
	Cached    bool     `json:"cached"`
	LatencyMS float64  `json:"latency_ms"`
	Error     string   `json:"error"`
}

func (s *sut) post(sql string) (answer, error) {
	body, err := json.Marshal(map[string]string{"sql": sql})
	if err != nil {
		return answer{}, err
	}
	resp, err := s.client.Post(s.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return answer{refused: true, bytes: len(raw)}, fmt.Errorf("olapd shed the request (429)")
	}
	var qr httpQueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return answer{}, fmt.Errorf("olapd response: %w", err)
	}
	if resp.StatusCode != http.StatusOK || qr.Value == nil || qr.Rows == nil {
		return answer{}, fmt.Errorf("olapd status %d: %s", resp.StatusCode, qr.Error)
	}
	return answer{value: *qr.Value, rows: *qr.Rows, cached: qr.Cached,
		serverMS: qr.LatencyMS, bytes: len(raw)}, nil
}

// counters snapshots the layer counters.
func (s *sut) counters() (counters, error) {
	var c counters
	if s.db == nil {
		resp, err := s.client.Get(s.base + "/stats")
		if err != nil {
			return c, err
		}
		defer resp.Body.Close()
		return c, json.NewDecoder(resp.Body).Decode(&c)
	}
	if cs, ok := s.db.ClusterStats(); ok {
		c.cluster = cs
		for _, n := range cs.PerNode {
			c.Submitted += n.Submitted
			c.ToCPU += n.ToCPU
		}
		return c, nil
	}
	sys := s.db.System()
	st := sys.Scheduler().Stats()
	c.Submitted, c.Resubmitted, c.ToCPU, c.ToGPU = st.Submitted, st.Resubmitted, st.ToCPU, st.ToGPU
	c.PredictedLate = st.PredictedLate
	c.Fusion.FusedJobs, c.Fusion.FusedMembers = st.FusedJobs, st.FusedMembers
	c.Fusion.Fallbacks = sys.FusionFallbacks()
	cs := s.db.CacheStats()
	c.Cache.Hits, c.Cache.Misses, c.Cache.SubsumptionHits = cs.Hits, cs.Misses, cs.SubsumptionHits
	c.Cache.EpochInvalidations, c.Cache.Evictions = cs.EpochInvalidations, cs.Evictions
	c.ingest = s.db.IngestStats()
	return c, nil
}

// memMB is the live heap after a collection (in process) or olapd's
// resident set.
func (s *sut) memMB() (float64, error) {
	if s.db != nil {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / 1e6, nil
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.child.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmRSS for olapd pid %d", s.child.Process.Pid)
}
