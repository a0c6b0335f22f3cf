package serve

// The async batch API. POST /v1/compile-batch validates every entry up
// front, answers 202 with a job id, and runs the entries in the
// background; GET /v1/jobs/{id} polls per-entry status and results,
// DELETE cancels and answers once the entries have settled. Whole-zoo
// compiles stop holding an HTTP connection open per network.
//
// Entries go through exactly the pipeline sync requests use —
// prepareSchedule/prepareCompile, then run: the deadline, the shard
// router, the cache tiers, the singleflight group, the bounded worker
// pool, the chaos injector and the ladder accounting — so an entry's
// result bytes are byte-identical to the equivalent sync response, and
// a failure in one entry is reported on that entry instead of failing
// the batch.
//
// The job table is bounded: beyond capacity the oldest finished job is
// evicted to make room, and if every tracked job is still running the
// submit is shed with 429 + Retry-After, the same overload contract as
// the admission queue.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"rana/internal/jsonenc"
)

// maxBatchEntries bounds one batch request; beyond it the request is
// hostile or mistaken (the whole zoo is 4 entries).
const maxBatchEntries = 256

// BatchEntrySpec is one entry of a compile-batch request: an operation
// plus the corresponding sync-request body. Exactly one of Compile or
// Schedule must be set, matching Op ("compile", the default, or
// "schedule").
type BatchEntrySpec struct {
	Op       string           `json:"op,omitempty"`
	Compile  *CompileRequest  `json:"compile,omitempty"`
	Schedule *ScheduleRequest `json:"schedule,omitempty"`
}

// BatchRequest is the /v1/compile-batch request body.
type BatchRequest struct {
	Entries []BatchEntrySpec `json:"entries"`
}

var batchEntrySpecFields = jsonenc.Fields[BatchEntrySpec]{
	{Name: "op", Read: func(r *jsonenc.Reader, e *BatchEntrySpec) { r.String(&e.Op) }},
	{Name: "compile", Read: func(r *jsonenc.Reader, e *BatchEntrySpec) { jsonenc.Pointer(r, &e.Compile, compileRequestFields) }},
	{Name: "schedule", Read: func(r *jsonenc.Reader, e *BatchEntrySpec) { jsonenc.Pointer(r, &e.Schedule, scheduleRequestFields) }},
}

var batchRequestFields = jsonenc.Fields[BatchRequest]{
	{Name: "entries", Read: func(r *jsonenc.Reader, b *BatchRequest) {
		jsonenc.Slice(r, &b.Entries, func(r *jsonenc.Reader, e *BatchEntrySpec) { jsonenc.Object(r, e, batchEntrySpecFields) })
	}},
}

// BatchAccepted is the 202 response body.
type BatchAccepted struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Total  int    `json:"total"`
}

// JobEntryStatus is one entry's state in a job-status response. Result
// holds the exact response body the equivalent sync endpoint would
// serve (less its trailing newline, which JSON embedding strips).
type JobEntryStatus struct {
	Index  int             `json:"index"`
	Op     string          `json:"op"`
	Status string          `json:"status"` // "pending", "running", "ok", "error" or "canceled"
	Key    string          `json:"key,omitempty"`
	Source string          `json:"source,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} response body.
type JobStatus struct {
	ID       string           `json:"id"`
	Status   string           `json:"status"` // "running", "done" or "canceled"
	Total    int              `json:"total"`
	Finished int              `json:"finished"`
	Entries  []JobEntryStatus `json:"entries"`
}

// jobEntry is one prepared batch entry awaiting or holding its result.
type jobEntry struct {
	op   string
	raw  []byte // synthesized request body for forwarding; nil without a ring
	work *work

	status string
	source string
	errMsg string
	result []byte
}

// job is one tracked batch job.
type job struct {
	id     string
	seq    int64
	cancel context.CancelFunc

	mu       sync.Mutex
	status   string // "running", "done" or "canceled"
	finished int
	entries  []*jobEntry
	done     chan struct{} // closed when the last entry settles
}

// jobTable is the bounded id → job map.
type jobTable struct {
	mu   sync.Mutex
	cap  int
	seq  int64
	jobs map[string]*job
}

func newJobTable(capacity int) *jobTable {
	return &jobTable{cap: capacity, jobs: make(map[string]*job)}
}

func (t *jobTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// insert registers a new job, evicting the oldest finished job when the
// table is full. evicted reports whether an eviction happened; a table
// full of running jobs refuses the insert instead (the caller sheds
// with 429 — jobs hold real deferred work, so dropping a running one
// would silently lose results a client is polling for).
func (t *jobTable) insert(entries []*jobEntry, cancel context.CancelFunc) (j *job, evicted bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.jobs) >= t.cap {
		var oldest *job
		for _, cand := range t.jobs {
			cand.mu.Lock()
			running := cand.status == "running"
			cand.mu.Unlock()
			if running {
				continue
			}
			if oldest == nil || cand.seq < oldest.seq {
				oldest = cand
			}
		}
		if oldest == nil {
			return nil, false, &apiError{
				status:     http.StatusTooManyRequests,
				msg:        fmt.Sprintf("job table full: %d jobs running", len(t.jobs)),
				retryAfter: time.Second,
			}
		}
		delete(t.jobs, oldest.id)
		evicted = true
	}
	t.seq++
	j = &job{
		id:      fmt.Sprintf("job-%d", t.seq),
		seq:     t.seq,
		cancel:  cancel,
		status:  "running",
		entries: entries,
		done:    make(chan struct{}),
	}
	t.jobs[j.id] = j
	return j, evicted, nil
}

// handleCompileBatch validates and admits a batch, then runs it in the
// background under the server's base context (the job outlives the
// submitting request; Shutdown still cancels it).
func (s *Server) handleCompileBatch(ctx context.Context, body []byte) (*response, error) {
	var req BatchRequest
	if err := decodeRequest(body, &req, batchRequestFields); err != nil {
		return nil, err
	}
	if len(req.Entries) == 0 {
		return nil, badRequest(`batch needs at least one entry in "entries"`)
	}
	if len(req.Entries) > maxBatchEntries {
		return nil, badRequest("batch has %d entries, max %d", len(req.Entries), maxBatchEntries)
	}
	// Validate every entry before accepting anything: a 202 promises the
	// batch is runnable, so malformed entries are a 400 now, not a
	// surprise in a poll later.
	entries := make([]*jobEntry, len(req.Entries))
	for i, spec := range req.Entries {
		e, err := s.prepareEntry(spec)
		if err != nil {
			return nil, badRequest("entry %d: %v", i, err)
		}
		entries[i] = e
	}
	jctx, cancel := context.WithCancel(s.baseCtx)
	j, evicted, err := s.jobs.insert(entries, cancel)
	if err != nil {
		cancel()
		return nil, err
	}
	if evicted {
		s.m.JobsEvicted.Add(1)
	}
	s.m.JobsAccepted.Add(1)
	go s.runJob(jctx, j)
	accepted, err := marshalBody(BatchAccepted{ID: j.id, Status: "running", Total: len(entries)})
	if err != nil {
		return nil, err
	}
	return &response{body: accepted, key: j.id, source: "job", status: http.StatusAccepted}, nil
}

// prepareEntry resolves one batch entry onto the shared work form and,
// on a sharded server, synthesizes the sync-request body the shard
// router would forward.
func (s *Server) prepareEntry(spec BatchEntrySpec) (*jobEntry, error) {
	op := spec.Op
	if op == "" {
		op = "compile"
	}
	e := &jobEntry{op: op, status: "pending"}
	var err error
	var reqBody any
	switch op {
	case "compile":
		if spec.Compile == nil || spec.Schedule != nil {
			return nil, fmt.Errorf(`op %q needs "compile" (and only it)`, op)
		}
		reqBody = spec.Compile
		e.work, err = s.prepareCompile(*spec.Compile)
	case "schedule":
		if spec.Schedule == nil || spec.Compile != nil {
			return nil, fmt.Errorf(`op %q needs "schedule" (and only it)`, op)
		}
		reqBody = spec.Schedule
		e.work, err = s.prepareSchedule(*spec.Schedule)
	default:
		return nil, fmt.Errorf(`invalid op %q (want "compile" or "schedule")`, op)
	}
	if err != nil {
		return nil, err
	}
	// Only a forward to a ring peer reads the body.
	if s.cfg.Ring != nil {
		if e.raw, err = json.Marshal(reqBody); err != nil {
			return nil, fmt.Errorf("encoding entry for forwarding: %v", err)
		}
	}
	return e, nil
}

// runJob fans the entries out concurrently; the admission queue and
// worker pool bound the actual computation, and admitWait (rather than
// the shedding admit) keeps entries queued instead of failed under
// load. Entry concurrency is additionally capped at the worker count so
// one giant batch cannot monopolize the admission queue against
// interactive traffic.
func (s *Server) runJob(ctx context.Context, j *job) {
	gate := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	for i, e := range j.entries {
		wg.Add(1)
		go func(i int, e *jobEntry) {
			defer wg.Done()
			select {
			case gate <- struct{}{}:
				defer func() { <-gate }()
			case <-ctx.Done():
				s.settleEntry(j, e, nil, ctx.Err())
				return
			}
			s.runJobEntry(ctx, j, e)
		}(i, e)
	}
	wg.Wait()
	// The job's final status is set here and nowhere else, once every
	// entry has settled, so no poll sees a finished job with an entry
	// still running.
	j.mu.Lock()
	if ctx.Err() != nil {
		j.status = "canceled"
		s.m.JobsCanceled.Add(1)
	} else {
		j.status = "done"
		s.m.JobsDone.Add(1)
	}
	close(j.done)
	j.mu.Unlock()
	j.cancel()
}

// runJobEntry executes one entry through run, the path sync requests
// take, waiting for admission instead of shedding.
func (s *Server) runJobEntry(ctx context.Context, j *job, e *jobEntry) {
	j.mu.Lock()
	e.status = "running"
	j.mu.Unlock()
	resp, err := s.guard("job-entry", func() (*response, error) {
		return s.run(ctx, e.work, e.raw, true)
	})
	s.settleEntry(j, e, resp, err)
}

// settleEntry records one entry's outcome.
func (s *Server) settleEntry(j *job, e *jobEntry, resp *response, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished++
	switch {
	case err == nil:
		e.status = "ok"
		e.source = resp.source
		// Bodies carry a trailing newline; embedding as a JSON value
		// strips insignificant whitespace, so drop it here and clients
		// re-add it for byte comparison against sync responses.
		e.result = bytes.TrimSuffix(resp.body, []byte("\n"))
	case errors.Is(err, context.Canceled):
		e.status = "canceled"
		e.errMsg = err.Error()
	default:
		e.status = "error"
		e.errMsg = err.Error()
	}
}

// handleJob serves GET (poll) and DELETE (cancel) on /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		s.m.status(jobsLabels, s.error(w, &apiError{status: http.StatusNotFound, msg: "no such job"}))
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		s.m.status(jobsLabels, s.error(w, &apiError{status: http.StatusNotFound, msg: fmt.Sprintf("no such job %q", id)}))
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodDelete {
		w.Header().Set("Allow", "GET, DELETE")
		s.m.status(jobsLabels, s.error(w, &apiError{status: http.StatusMethodNotAllowed, msg: "use GET or DELETE"}))
		return
	}
	if r.Method == http.MethodDelete {
		// Cancel, then answer once the entries have settled and runJob
		// has set the final status. An entry leading a flight that a sync
		// request joined keeps computing for that joiner (DESIGN §8), so
		// the wait can be that long; this request's context bounds it.
		j.cancel()
		select {
		case <-j.done:
		case <-r.Context().Done():
		}
	}
	body, err := marshalBody(j.snapshot())
	if err != nil {
		s.m.status(jobsLabels, s.error(w, err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	s.m.status(jobsLabels, http.StatusOK)
}

// snapshot renders the job's current state.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		Status:   j.status,
		Total:    len(j.entries),
		Finished: j.finished,
		Entries:  make([]JobEntryStatus, len(j.entries)),
	}
	for i, e := range j.entries {
		st.Entries[i] = JobEntryStatus{
			Index:  i,
			Op:     e.op,
			Status: e.status,
			Key:    e.work.key,
			Source: e.source,
			Error:  e.errMsg,
			Result: json.RawMessage(e.result),
		}
	}
	return st
}
