package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	"osdiversity"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/relstore"
	"osdiversity/internal/server"
	"osdiversity/internal/vulndb"
)

// buildDoc builds the document a GET or recommend request answers, from
// the server's exported Build* constructors — the same ones the handlers
// call — so a served body can be compared byte for byte.
func buildDoc(a *osdiversity.Analysis, r Req) (any, error) {
	u, err := url.Parse(r.Path)
	if err != nil {
		return nil, err
	}
	q := u.Query()
	atoi := func(name string, def int) int {
		if v := q.Get(name); v != "" {
			n, _ := strconv.Atoi(v) // generated requests carry valid integers
			return n
		}
		return def
	}
	switch u.Path {
	case "/api/table1":
		return server.BuildTable1(a), nil
	case "/api/table2":
		return server.BuildTable2(a), nil
	case "/api/table3":
		return server.BuildTable3(a), nil
	case "/api/table4":
		return server.BuildTable4(a), nil
	case "/api/table5":
		return server.BuildTable5(a, server.CanonSplitYear(a, atoi("split", server.DefaultSplitYear))), nil
	case "/api/temporal":
		return server.BuildTemporal(a, q.Get("os"))
	case "/api/kwise":
		return server.BuildKWise(a), nil
	case "/api/mostshared":
		return server.BuildMostShared(a, server.CanonListLimit(a, atoi("n", 3))), nil
	case "/api/select":
		return server.BuildSelect(a, atoi("k", 4), q.Get("one-per-family") == "true",
			server.CanonSplitYear(a, atoi("to", server.DefaultSplitYear)), atoi("top", 0)), nil
	case "/api/releases":
		return server.BuildReleases(a)
	case "/api/attack":
		return server.BuildAttack(a, "configuration", q["os"], atoi("f", 1), atoi("trials", 200))
	case "/api/recommend":
		var req httpapi.RecommendRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return nil, err
		}
		canon, err := server.CanonRecommend(a, req)
		if err != nil {
			return nil, err
		}
		return server.BuildRecommend(a, canon)
	}
	return nil, fmt.Errorf("no builder for %s", u.Path)
}

// expectedBody is buildDoc marshalled as the server writes it.
func expectedBody(a *osdiversity.Analysis, r Req) ([]byte, error) {
	doc, err := buildDoc(a, r)
	if err != nil {
		return nil, err
	}
	return httpapi.Marshal(doc)
}

// sampled is a response body kept for the post-run check.
type sampled struct {
	req  Req
	body []byte
}

// checkAgainstAnalysis compares bodies with an in-process build over the
// whole corpus. It returns the number of mismatches and a first example.
func checkAgainstAnalysis(a *osdiversity.Analysis, got []sampled) (int, string, error) {
	bad, first := 0, ""
	for _, s := range got {
		want, err := expectedBody(a, s.req)
		if err != nil {
			return 0, "", fmt.Errorf("%s: %w", s.req.Path, err)
		}
		if !bytes.Equal(want, s.body) {
			if bad == 0 {
				first = fmt.Sprintf("%s: got %d bytes, want %d", s.req.Path, len(s.body), len(want))
			}
			bad++
		}
	}
	return bad, first, nil
}

// decodeQuery reads a POST /api/query request the way the server does.
func decodeQuery(r Req) (string, []relstore.Value, error) {
	dec := json.NewDecoder(bytes.NewReader(r.Body))
	dec.UseNumber()
	var req httpapi.QueryRequest
	if err := dec.Decode(&req); err != nil {
		return "", nil, err
	}
	args, err := server.QueryArgsFromJSON(req.Args)
	return req.SQL, args, err
}

// queryBody answers a POST /api/query request with an in-process
// relstore query over the same database file.
func queryBody(db *vulndb.DB, r Req) ([]byte, error) {
	sql, args, err := decodeQuery(r)
	if err != nil {
		return nil, err
	}
	res, err := db.Store().Query(sql, args...)
	if err != nil {
		return nil, err
	}
	return httpapi.Marshal(server.BuildQueryResult(res))
}

// checkQueries compares sampled /api/query bodies with in-process rows.
func checkQueries(dbPath string, got []sampled) (int, string, error) {
	db, err := vulndb.Open(dbPath)
	if err != nil {
		return 0, "", err
	}
	bad, first := 0, ""
	for _, s := range got {
		want, err := queryBody(db, s.req)
		if err != nil {
			return 0, "", err
		}
		if !bytes.Equal(want, s.body) {
			if bad == 0 {
				first = fmt.Sprintf("%s: got %q, want %q", s.req.Body, s.body, want)
			}
			bad++
		}
	}
	return bad, first, nil
}
