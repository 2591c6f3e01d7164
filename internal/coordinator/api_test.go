package coordinator

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestJobsAPI(t *testing.T) {
	svc := startService(t, Options{LeaseTTL: 500 * time.Millisecond})
	srv := httptest.NewServer(svc.APIHandler())
	defer srv.Close()

	// Submit.
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"bug":"Roshi-1","mode":"dfs","max_interleavings":16}`))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /jobs = %s, want 201", resp.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if st.ID == "" || st.State != StateRunning || st.Label != "Roshi-1" {
		t.Fatalf("submitted status = %+v", st)
	}

	// Bad spec rejected.
	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"mode":"fuzz"}`))
	if err != nil {
		t.Fatalf("POST bad spec: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec = %s, want 400", resp.Status)
	}

	// List.
	resp, err = http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	// Get one.
	resp, err = http.Get(srv.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", st.ID, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job = %s, want 200", resp.Status)
	}
	resp, _ = http.Get(srv.URL + "/jobs/nope")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown = %s, want 404", resp.Status)
	}

	// Cancel, then a waited GET returns the terminal state immediately.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode cancel: %v", err)
	}
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("after DELETE state = %s, want cancelled", st.State)
	}
	start := time.Now()
	resp, err = http.Get(srv.URL + "/jobs/" + st.ID + "?wait=30")
	if err != nil {
		t.Fatalf("GET wait: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode wait: %v", err)
	}
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("waited state = %s, want cancelled", st.State)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("?wait blocked on an already-terminal job")
	}
}

// TestJobsAPIClient drives the one jobs-API client, which erpi
// -coordinator and erpi-coordinator submit both call, against APIHandler:
// a submit returns the job's status, a refused spec comes back with the
// service's text, and WaitJob returns the terminal status with its digest.
func TestJobsAPIClient(t *testing.T) {
	svc := startService(t, Options{LeaseTTL: 500 * time.Millisecond})
	srv := httptest.NewServer(svc.APIHandler())
	defer srv.Close()

	_, err := SubmitJob(srv.URL, JobSpec{Bug: "Roshi-1", Miscon: "CRDTs#4"})
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "exactly one of bug or miscon") {
		t.Fatalf("a spec naming a bug and a miscon: err = %v, want the service's 400 text", err)
	}

	spec := testSpec()
	st, err := SubmitJob(srv.URL, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != StateRunning || st.Label != "Roshi-1" || st.Spec.MaxInterleavings != spec.MaxInterleavings {
		t.Fatalf("submitted status = %+v", st)
	}
	worked := make(chan error, 1)
	go func() {
		worked <- RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: "w1", Job: st.ID, Once: true})
	}()
	final, err := WaitJob(srv.URL, st.ID, 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-worked; err != nil {
		t.Fatalf("worker: %v", err)
	}
	wantDigest, wantExplored := sequentialBaseline(t, spec)
	if final.State != StateDone || final.Digest != wantDigest || final.Explored != wantExplored {
		t.Fatalf("waited status: %s, digest %q, %d explored; want done, %q, %d",
			final.State, final.Digest, final.Explored, wantDigest, wantExplored)
	}
	if _, err := WaitJob(srv.URL, "nope", 1); err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Fatalf("waiting on an unknown job: %v", err)
	}
}
