package olap

import (
	"fmt"
	"strconv"

	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

// GroupRow is one row of a grouped query's answer, with human-readable
// key labels: dimension keys render as "dim.level=coordinate", text keys
// decode through the column's dictionary.
type GroupRow struct {
	Labels []string
	Value  float64
	Rows   int64
}

// QueryGroups parses and runs a grouped query (SELECT ... GROUP BY ...),
// scheduling it with the Fig. 10 algorithm and executing it on the chosen
// partition. Rows come back sorted by group key.
func (db *DB) QueryGroups(sql string) ([]GroupRow, Route, error) {
	q, err := db.Parse(sql)
	if err != nil {
		return nil, Route{}, err
	}
	if !q.Grouped() {
		return nil, Route{}, fmt.Errorf("olap: query has no GROUP BY (use Query)")
	}
	if db.cl != nil {
		rows, cp, _, err := db.cl.QueryGroups(q)
		if err != nil {
			return nil, Route{}, err
		}
		out := db.labelGroupRows(q, rows)
		route := Route{Kind: fmt.Sprintf("cluster[%d]", db.cl.Shards()), Translated: q.GPUOnly(), Partial: cp}
		return out, route, nil
	}
	rows, queue, err := db.sys.RunGrouped(q)
	if err != nil {
		return nil, Route{}, err
	}
	out := db.labelGroupRows(q, rows)
	route := Route{Kind: queue, Translated: q.GPUOnly()}
	return out, route, nil
}

// labelGroupRows renders raw group keys into human-readable labels:
// dimension keys as "dim.level=coordinate", text keys decoded through the
// column's dictionary (live systems decode through the growing append
// dictionaries, so freshly ingested strings label correctly).
func (db *DB) labelGroupRows(q *query.Query, rows []table.GroupRow) []GroupRow {
	out := make([]GroupRow, len(rows))
	s := db.Schema()
	dicts := db.dicts()
	for i, r := range rows {
		labels := make([]string, len(q.GroupBy))
		for k, g := range q.GroupBy {
			if g.Text {
				str, derr := dicts.Decode(g.Column, r.Keys[k])
				if derr != nil {
					str = strconv.FormatUint(uint64(r.Keys[k]), 10)
				}
				labels[k] = g.Column + "=" + str
				continue
			}
			dim := s.Dimensions[g.Dim]
			labels[k] = dim.Name + "." + dim.Levels[g.Level].Name + "=" +
				strconv.FormatUint(uint64(r.Keys[k]), 10)
		}
		out[i] = GroupRow{Labels: labels, Value: r.Value, Rows: r.Rows}
	}
	return out
}
