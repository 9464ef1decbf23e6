package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"chaos"
)

// TestJobOptionsCoverAllOptionFields reflects over chaos.Options and the
// wire form: every engine knob must have a same-named wire field, so a
// new option cannot be silently dropped by the job API.
func TestJobOptionsCoverAllOptionFields(t *testing.T) {
	opt := reflect.TypeOf(chaos.Options{})
	wire := reflect.TypeOf(jobOptions{})
	for i := 0; i < opt.NumField(); i++ {
		name := opt.Field(i).Name
		if _, ok := wire.FieldByName(name); !ok {
			t.Errorf("chaos.Options.%s has no jobOptions counterpart", name)
		}
	}
	for i := 0; i < wire.NumField(); i++ {
		name := wire.Field(i).Name
		if _, ok := opt.FieldByName(name); !ok {
			t.Errorf("jobOptions.%s does not correspond to a chaos.Options field", name)
		}
	}
}

// TestJobOptionsRoundTrip sets every wire field to a non-default value
// and checks resolve carries each one into the engine options.
func TestJobOptionsRoundTrip(t *testing.T) {
	req := jobRequest{
		Graph:     "g",
		Algorithm: "pagerank",
		Options: jobOptions{
			Machines:          3,
			Storage:           "hdd",
			Network:           "1g",
			Cores:             8,
			ChunkBytes:        1 << 12,
			VertexChunkBytes:  1 << 11,
			MemBudgetBytes:    1 << 21,
			MemoryBudgetMB:    12,
			BatchK:            7,
			WindowOverride:    9,
			Alpha:             2.5,
			DisableStealing:   true,
			AlwaysSteal:       true,
			CheckpointEvery:   2,
			FailAtIteration:   3,
			CentralDirectory:  true,
			CombineUpdates:    true,
			RewriteEdges:      true,
			ReplicateVertices: true,
			MaxIterations:     42,
			LatencyScale:      0.25,
			Engine:            "native",
			Seed:              99,
		},
	}
	alg, got, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if alg != "PR" {
		t.Errorf("algorithm = %q, want PR", alg)
	}
	want := chaos.Options{
		Machines:          3,
		Storage:           chaos.HDD,
		Network:           chaos.Net1GigE,
		Cores:             8,
		ChunkBytes:        1 << 12,
		VertexChunkBytes:  1 << 11,
		MemBudgetBytes:    1 << 21,
		MemoryBudgetMB:    12,
		BatchK:            7,
		WindowOverride:    9,
		Alpha:             2.5,
		DisableStealing:   true,
		AlwaysSteal:       true,
		CheckpointEvery:   2,
		FailAtIteration:   3,
		CentralDirectory:  true,
		CombineUpdates:    true,
		RewriteEdges:      true,
		ReplicateVertices: true,
		MaxIterations:     42,
		LatencyScale:      0.25,
		Engine:            chaos.EngineNative,
		Seed:              99,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resolved options\n got %+v\nwant %+v", got, want)
	}
}

func postJSON(t *testing.T, h http.Handler, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestPostRejectsRetiredOptionFields: computeWorkers and nativeBarrier
// were removed from the job API; a client still sending them gets a 400
// naming the field rather than a silently ignored knob.
func TestPostRejectsRetiredOptionFields(t *testing.T) {
	svc := newTestService(t, 1)
	h := svc.Handler()
	for name, value := range map[string]string{"computeWorkers": "4", "nativeBarrier": "true"} {
		w := postJSON(t, h, "/v1/jobs", `{"graph":"g","algorithm":"PR","options":{"`+name+`":`+value+`}}`)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), name) {
			t.Errorf("%s: status %d, body %s; want 400 naming the field", name, w.Code, w.Body.String())
		}
	}
}

// Typo'd JSON keys used to run jobs with silent defaults; now they fail
// with 400 before anything is scheduled.
func TestPostRejectsUnknownFields(t *testing.T) {
	svc := newTestService(t, 1)
	h := svc.Handler()
	w := postJSON(t, h, "/v1/jobs", `{"graph":"g","algorithm":"PR","options":{"mahcines":4}}`)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "mahcines") {
		t.Errorf("typo'd job option: status %d, body %s", w.Code, w.Body.String())
	}
	w = postJSON(t, h, "/v1/graphs", `{"type":"rmat","scael":5}`)
	if w.Code != http.StatusBadRequest {
		t.Errorf("typo'd graph field: status %d, body %s", w.Code, w.Body.String())
	}
	w = postJSON(t, h, "/v1/jobs", `{"graph":"g","algorithm":"PR"}{"graph":"g"}`)
	if w.Code != http.StatusBadRequest {
		t.Errorf("trailing document: status %d, body %s", w.Code, w.Body.String())
	}
}

// TestListJobsQueryValidation: the pagination query parameters reject
// garbage with 400 and page a real listing end to end.
func TestListJobsQuery(t *testing.T) {
	svc := newTestService(t, 1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "g", Type: "rmat", Scale: 6, Seed: 1}, nil); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	ids := make([]string, 3)
	for i := range ids {
		var jv JobView
		if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
			jobRequest{Graph: "g", Algorithm: "PR", Options: jobOptions{Seed: int64(i + 1)}}, &jv); code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, body)
		}
		ids[i] = jv.ID
		pollJob(t, client, ts.URL, jv.ID)
	}

	var page []JobView
	if code, _ := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs?state=done&limit=2", nil, &page); code != http.StatusOK || len(page) != 2 {
		t.Fatalf("first page: %d jobs", len(page))
	}
	if code, _ := doJSON(t, client, http.MethodGet,
		ts.URL+"/v1/jobs?state=done&limit=2&after="+page[1].ID, nil, &page); code != http.StatusOK || len(page) != 1 || page[0].ID != ids[2] {
		t.Fatalf("second page %+v", page)
	}
	for _, bad := range []string{"?state=zombie", "?limit=-1", "?limit=x", "?after=42", "?after=jx"} {
		if code, body := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs"+bad, nil, nil); code != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s: %d %s, want 400", bad, code, body)
		}
	}
}

// TestPostRejectsOversizedBody: over-limit bodies answer 413 (not a
// generic 400), and the two POST endpoints have different limits — job
// requests are capped at 1 MB, graph registrations at the much larger
// configurable upload cap, so a multi-MB base64 edge list registers
// fine while the same bytes sent as a job request are refused.
func TestPostRejectsOversizedBody(t *testing.T) {
	svc := New(Config{Workers: 1, BaseOptions: labOptions, MaxUploadBytes: 8 << 20})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	pad := strings.Repeat(" ", maxBodyBytes) // > 1 MB, well under the upload cap

	var b bytes.Buffer
	b.WriteString(`{"graph":"g","algorithm":"PR","options":{"seed":`)
	b.WriteString(pad)
	b.WriteString(`1}}`)
	w := postJSON(t, svc.Handler(), "/v1/jobs", b.String())
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized job body: status %d, want 413", w.Code)
	}

	// The same padding inside a graph registration is within the upload
	// cap: it must reach the spec validator (400 for the bogus type),
	// not die at the size gate.
	b.Reset()
	b.WriteString(`{"type":"mystery","name":`)
	b.WriteString(pad)
	b.WriteString(`"x"}`)
	w = postJSON(t, svc.Handler(), "/v1/graphs", b.String())
	if w.Code != http.StatusBadRequest {
		t.Errorf("graph body over 1MB but under the upload cap: status %d, want 400", w.Code)
	}

	// Past the upload cap, graphs 413 too.
	b.Reset()
	b.WriteString(`{"type":"mystery","name":`)
	b.WriteString(strings.Repeat(" ", 8<<20))
	b.WriteString(`"x"}`)
	w = postJSON(t, svc.Handler(), "/v1/graphs", b.String())
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("graph body over the upload cap: status %d, want 413", w.Code)
	}
}
