package query

import (
	"fmt"

	"hybridolap/internal/dict"
)

// Translate rewrites every untranslated text condition to a code interval
// using the per-column dictionary set — the work of the paper's
// preprocessing (translation) CPU partition. Literals absent from a
// dictionary do not fail the query: they yield an Empty condition, meaning
// the predicate provably selects no rows.
//
// It returns the number of dictionary lookups performed, which drives the
// translation-time accounting of eqs. (16)–(18).
func Translate(q *Query, dicts *dict.Set) (lookups int, err error) {
	for i := range q.TextConds {
		tc := &q.TextConds[i]
		if tc.Translated {
			continue
		}
		if len(tc.In) > 0 {
			// IN-list: one lookup per literal; absent literals drop out.
			d, ok := dicts.Get(tc.Column)
			if !ok {
				return lookups, fmt.Errorf("query: no dictionary for column %q", tc.Column)
			}
			for _, lit := range tc.In {
				lookups++
				if id, found := d.Lookup(lit); found {
					tc.InCodes = append(tc.InCodes, uint32(id))
				}
			}
			tc.Translated = true
			if len(tc.InCodes) == 0 {
				tc.Empty = true
			}
			continue
		}
		if tc.From == tc.To {
			// Equality predicate: one lookup.
			lookups++
			d, ok := dicts.Get(tc.Column)
			if !ok {
				return lookups, fmt.Errorf("query: no dictionary for column %q", tc.Column)
			}
			id, found := d.Lookup(tc.From)
			tc.Translated = true
			if !found {
				tc.Empty = true
				continue
			}
			tc.FromCode, tc.ToCode = uint32(id), uint32(id)
			continue
		}
		// Range predicate: bounded by two dictionary searches (plus a tail
		// sweep on live append dictionaries, whose lexically in-range
		// appended strings come back as extra point codes).
		lookups += 2
		lo, hi, extra, empty, rerr := dicts.TranslateRangeExtra(tc.Column, tc.From, tc.To)
		if rerr != nil {
			return lookups, rerr
		}
		tc.Translated = true
		if empty {
			tc.Empty = true
			continue
		}
		tc.FromCode, tc.ToCode = uint32(lo), uint32(hi)
		tc.ExtraCodes = append([]uint32(nil), extra...)
	}
	return lookups, nil
}
