package coordinator

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// APIHandler returns the jobs HTTP API, mountable on the telemetry status
// server (StatusServer.Handle("/jobs", ...)) or any mux:
//
//	POST   /jobs            submit a JobSpec, returns its JobStatus (201)
//	GET    /jobs            list all jobs
//	GET    /jobs/<id>       one job's status; ?wait=<seconds> blocks until
//	                        the job is terminal or the wait expires
//	DELETE /jobs/<id>       cancel a job
func (s *Service) APIHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	return mux
}

// SubmitJob posts spec to the jobs API under api (a status server's base
// URL, e.g. http://127.0.0.1:8080) and returns the new job's status. A
// spec the service refuses comes back as an error with the service's text.
// erpi -coordinator and erpi-coordinator submit share it.
func SubmitJob(api string, spec JobSpec) (*JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(api+"/jobs", "application/json", bytes.NewReader(body))
	return readStatus(resp, err, http.StatusCreated)
}

// WaitJob returns job id's status from the jobs API under api, once the
// job is terminal or after secs seconds, whichever comes first.
func WaitJob(api, id string, secs int) (*JobStatus, error) {
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s?wait=%d", api, id, secs))
	return readStatus(resp, err, http.StatusOK)
}

// readStatus decodes a jobs-API reply into a JobStatus, or into an error
// naming the HTTP status and the service's text when the reply is not the
// wanted code.
func readStatus(resp *http.Response, err error, want int) (*JobStatus, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) != nil || e.Error == "" {
			e.Error = string(bytes.TrimSpace(data))
		}
		return nil, fmt.Errorf("coordinator: %s: %s", resp.Status, e.Error)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		jobs := s.Jobs()
		out := make([]JobStatus, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, j.Status())
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var spec JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			writeErr(w, http.StatusBadRequest, "malformed spec: "+err.Error())
			return
		}
		j, err := s.Submit(spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, j.Status())
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	j, ok := s.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	switch r.Method {
	case http.MethodGet:
		if secs, _ := strconv.Atoi(r.URL.Query().Get("wait")); secs > 0 {
			t := time.NewTimer(time.Duration(secs) * time.Second)
			select {
			case <-j.Done():
			case <-t.C:
			case <-r.Context().Done():
			}
			t.Stop()
		}
		writeJSON(w, http.StatusOK, j.Status())
	case http.MethodDelete:
		j.cancel()
		writeJSON(w, http.StatusOK, j.Status())
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}
