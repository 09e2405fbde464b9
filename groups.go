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

// QueryGroups parses a grouped query (SELECT ... GROUP BY ...) and
// answers it through Serve. Rows come back sorted by group key.
func (db *DB) QueryGroups(sql string) ([]GroupRow, Route, error) {
	q, err := db.Parse(sql)
	if err != nil {
		return nil, Route{}, err
	}
	if !q.Grouped() {
		return nil, Route{}, fmt.Errorf("olap: query has no GROUP BY (use Query)")
	}
	res, err := db.Serve(q)
	return res.Groups, res.Route, err
}

// labelGroupRows renders raw group keys into human-readable labels:
// dimension keys as "dim.level=coordinate", text keys decoded through the
// column's dictionary (live systems decode through the growing append
// dictionaries, so freshly ingested strings label correctly). A scalar
// query has no rows to label.
func (db *DB) labelGroupRows(q *query.Query, rows []table.GroupRow) []GroupRow {
	if !q.Grouped() {
		return nil
	}
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
