package main

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestQueryRIDLimit pins the rids/limit parameters of /query in both serve
// modes: limit caps the listed record ids (20 when absent), limit=0 lists
// none, rids=1 is required for any, and a limit that is not a
// non-negative integer is rejected with 400.
func TestQueryRIDLimit(t *testing.T) {
	ix := newTestServer(t, buildTestIndex(t))
	tbl, err := newTableServer(buildTestTable(t), "")
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		mux  *http.ServeMux
		q    string
	}{
		{"index", ix.mux(), "/query?q=%3C%3D+17"},
		{"table", tbl.mux(), "/query?q=quantity+%3C%3D+10"},
	}
	cases := []struct {
		params   string
		wantCode int
		wantRIDs int
	}{
		{"&rids=1", 200, 20},
		{"&rids=1&limit=3", 200, 3},
		{"&rids=1&limit=1", 200, 1},
		{"&rids=1&limit=0", 200, 0},
		{"&limit=3", 200, 0},
		{"&rids=1&limit=-5", 400, 0},
		{"&rids=1&limit=x", 400, 0},
		{"&rids=1&limit=2.5", 400, 0},
		{"&limit=x", 400, 0},
	}
	for _, m := range modes {
		for _, c := range cases {
			code, body := serveGet(t, m.mux, m.q+c.params)
			if code != c.wantCode {
				t.Errorf("%s %s: status %d, want %d: %s", m.name, c.params, code, c.wantCode, body)
				continue
			}
			if code != 200 {
				continue
			}
			var resp struct {
				Matches int   `json:"matches"`
				RIDs    []int `json:"rids"`
			}
			if err := json.Unmarshal([]byte(body), &resp); err != nil {
				t.Fatalf("%s %s: bad JSON: %v\n%s", m.name, c.params, err, body)
			}
			if resp.Matches < 20 {
				t.Fatalf("%s: fixture query matches %d rows, the cases need at least 20", m.name, resp.Matches)
			}
			if len(resp.RIDs) != c.wantRIDs {
				t.Errorf("%s %s: %d rids, want %d", m.name, c.params, len(resp.RIDs), c.wantRIDs)
			}
		}
	}
}
