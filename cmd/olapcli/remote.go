package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hybridolap/internal/cluster"
)

// remote answers every REPL command by calling a running olapd. Errors
// from the server — validation failures, 429 load shedding, 503 degraded
// ingest — are reported with their status code and response body, so the
// shell shows exactly what the server said.
type remote struct {
	base string
	hc   *http.Client
}

func newRemote(addr string) *remote {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &remote{
		base: strings.TrimRight(addr, "/"),
		hc:   &http.Client{Timeout: 60 * time.Second},
	}
}

// call performs one API request and returns the response body. A non-2xx
// status becomes an error carrying the code, its name, the body and (when
// present) the server's Retry-After hint.
func (r *remote) call(method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, r.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg := strings.TrimSpace(string(b))
		if msg == "" {
			msg = "(empty response body)"
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			return nil, fmt.Errorf("HTTP %d %s (retry after %ss): %s",
				resp.StatusCode, http.StatusText(resp.StatusCode), ra, msg)
		}
		return nil, fmt.Errorf("HTTP %d %s: %s",
			resp.StatusCode, http.StatusText(resp.StatusCode), msg)
	}
	return b, nil
}

// remoteQueryResponse mirrors olapd's /query response shape.
type remoteQueryResponse struct {
	Value  *float64 `json:"value"`
	Rows   *int64   `json:"rows"`
	Groups []struct {
		Labels []string `json:"labels"`
		Value  float64  `json:"value"`
		Rows   int64    `json:"rows"`
	} `json:"groups"`
	Route     string                `json:"route"`
	Partial   *cluster.Completeness `json:"partial"`
	LatencyMS float64               `json:"latency_ms"`
}

// partialNote marks degraded answers (olapd status 206) at the prompt.
func (v *remoteQueryResponse) partialNote() string {
	if v.Partial == nil {
		return ""
	}
	return fmt.Sprintf("  ** PARTIAL: %d/%d chunks, missing shards %v **",
		v.Partial.ChunksAnswered, v.Partial.ChunksTotal, v.Partial.MissingShards)
}

func (r *remote) query(sql string) {
	b, err := r.call(http.MethodPost, "/query", map[string]string{"sql": sql})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var v remoteQueryResponse
	if err := json.Unmarshal(b, &v); err != nil {
		fmt.Println("error: bad response:", err)
		return
	}
	if len(v.Groups) > 0 {
		for _, g := range v.Groups {
			fmt.Printf("  %-40s %.4f  (%d rows)\n", strings.Join(g.Labels, ", "), g.Value, g.Rows)
		}
		fmt.Printf("%d groups via %s (%.2fms)%s\n", len(v.Groups), v.Route, v.LatencyMS, v.partialNote())
		return
	}
	if v.Value == nil || v.Rows == nil {
		fmt.Println("error: response carries neither value nor groups")
		return
	}
	fmt.Printf("%.4f  (%d rows, via %s, %.2fms)%s\n", *v.Value, *v.Rows, v.Route, v.LatencyMS, v.partialNote())
}

func (r *remote) explain(sql string) {
	r.printJSON(http.MethodPost, "/explain", map[string]string{"sql": sql})
}

func (r *remote) schema() { r.printJSON(http.MethodGet, "/schema", nil) }
func (r *remote) stats()  { r.printJSON(http.MethodGet, "/stats", nil) }
func (r *remote) close()  {}

// printJSON prints a response verbatim — the server already indents.
func (r *remote) printJSON(method, path string, body any) {
	b, err := r.call(method, path, body)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(string(b))
}

func (r *remote) ingest(arg string) {
	row, err := parseRow(arg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	type jsonRow struct {
		Coords   []int     `json:"coords"`
		Measures []float64 `json:"measures"`
		Texts    []string  `json:"texts"`
	}
	b, err := r.call(http.MethodPost, "/ingest", map[string][]jsonRow{
		"rows": {{Coords: row.Coords, Measures: row.Measures, Texts: row.Texts}},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var v struct {
		Epoch uint64 `json:"epoch"`
		Rows  int    `json:"rows"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		fmt.Println("error: bad response:", err)
		return
	}
	fmt.Printf("%d row(s) visible at epoch %d\n", v.Rows, v.Epoch)
}
