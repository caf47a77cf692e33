package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"github.com/specdag/specdag/internal/wire"
)

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// apiError is the JSON error body of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

// writeError maps lifecycle errors to HTTP statuses: unknown run → 404,
// lifecycle conflict → 409, quota exhaustion → 429 with Retry-After,
// everything else → 400.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var nf *notFoundError
	var st *stateError
	var qe *quotaError
	switch {
	case errors.As(err, &nf):
		status = http.StatusNotFound
	case errors.As(err, &st):
		status = http.StatusConflict
	case errors.As(err, &qe):
		status = http.StatusTooManyRequests
		// A coarse hint: quota frees when an active run settles, which is
		// run-length-dependent; clients should poll, not hammer.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

// pathRun resolves the {id} path segment to its run, answering 404 itself
// on garbage and on unknown IDs.
func (s *Server) pathRun(w http.ResponseWriter, r *http.Request) (*run, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id <= 0 {
		writeJSON(w, http.StatusNotFound, apiError{Error: "run IDs are positive integers"})
		return nil, false
	}
	run, err := s.lookup(id)
	if err != nil {
		writeError(w, err)
		return nil, false
	}
	return run, true
}

// handleSubmit implements POST /runs: decode the RunRequest, start the run,
// answer 201 with its initial status.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding run request: " + err.Error()})
		return
	}
	id, err := s.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	run, _ := s.lookup(id)
	writeJSON(w, http.StatusCreated, run.status())
}

// handleList implements GET /runs: every run's status, ordered by ID.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statuses())
}

// lifecycle is the handler behind GET /runs/{id} and the POST verbs under it
// — pause (stop at the next unit boundary and checkpoint; the answer's
// CheckpointIndex is the event index a subscriber resumes from), resume and
// cancel: apply act to the run, answer with its status.
func (s *Server) lifecycle(act func(ctx context.Context, id int) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		run, ok := s.pathRun(w, r)
		if !ok {
			return
		}
		if err := act(r.Context(), run.id); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, run.status())
	}
}

// handleCheckpoint implements GET /runs/{id}/checkpoint: the latest
// checkpoint (SDC3/SDA3, exactly what cmd/specdag -resume accepts), with
// CheckpointIndexHeader carrying the event index it resumes from. The bytes
// are encoded from the run's capture into the response a chunk at a time —
// the daemon never holds them — under a Content-Length stated up front, so a
// download cut short is one the client can tell from a whole one.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	run, ok := s.pathRun(w, r)
	if !ok {
		return
	}
	run.mu.Lock()
	ckpt, index := run.ckpt, run.ckptIndex
	run.mu.Unlock()
	if ckpt == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "run has no checkpoint yet"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(ckpt.Size(), 10))
	w.Header().Set(CheckpointIndexHeader, strconv.FormatUint(index, 10))
	w.WriteHeader(http.StatusOK)
	if _, err := ckpt.WriteTo(w); err != nil {
		// The status is sent; what is left to say is that the body is not whole.
		panic(http.ErrAbortHandler)
	}
}

// handleEvents implements GET /runs/{id}/events?from=N: an SDE2 stream of
// the run's event log from index N (default 0) until the run ends or the
// client disconnects. Any index at or before the log head is valid; if the
// ring has already dropped it, the stream opens with a Gap frame naming the
// missed range and the latest checkpoint's index, then continues from the
// oldest retained frame — the client chooses between accepting the drop and
// re-subscribing from the checkpoint. An index beyond the head answers 416
// (a client asking for events that do not exist yet is confused, not early:
// reconnecting clients resume from indices they have already seen).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run, ok := s.pathRun(w, r)
	if !ok {
		return
	}
	from := uint64(0)
	if q := r.URL.Query().Get("from"); q != "" {
		var err error
		from, err = strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "from must be a non-negative integer"})
			return
		}
	}
	if next := run.b.NextIndex(); from > next {
		writeJSON(w, http.StatusRequestedRangeNotSatisfiable, apiError{
			Error: "from " + strconv.FormatUint(from, 10) + " is beyond the log head " + strconv.FormatUint(next, 10),
		})
		return
	}

	w.Header().Set("Content-Type", EventStreamContentType)
	w.WriteHeader(http.StatusOK)
	ww, err := wire.NewWriter(w)
	if err != nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush() // commit the header so clients see the magic before the first event

	sub := run.b.Subscribe(from)
	// Frames the subscriber is behind on go out together: the stream is
	// flushed when it has caught up, not after every frame.
	caughtUp := func() {
		if sub.Cursor() >= run.b.NextIndex() {
			flush()
		}
	}
	for {
		f, err := sub.Next(r.Context())
		var gap *GapError
		switch {
		case err == nil:
			if ww.WriteFrame(&f) != nil {
				return // client gone
			}
			caughtUp()
		case errors.As(err, &gap):
			// Resync first: the cursor lands on the oldest frame still in
			// the ring *now*, so the dropped range is [gap.From, to) exactly.
			// (Resyncing after a slow replay would silently skip whatever
			// the ring overwrote meanwhile.)
			to := sub.Resync()
			// First choice: replay the overwritten range from the spill file
			// — the subscriber sees a complete stream, no gap at all. Should
			// the ring lap the cursor again during the replay, the next
			// iteration handles the fresh GapError the same way.
			replayed, rerr := run.b.ReplayGap(gap.From, to, func(f *wire.Frame) error { return ww.WriteFrame(f) })
			if replayed {
				if rerr != nil {
					return // client gone mid-replay
				}
				caughtUp()
				continue
			}
			// No spill coverage: tell the subscriber exactly what it missed
			// and where the latest checkpoint resumes, then continue with
			// what remains (drop semantics).
			run.mu.Lock()
			ckptIndex := run.ckptIndex
			run.mu.Unlock()
			gf := wire.Frame{
				Index: gap.From,
				Kind:  wire.KindGap,
				Gap:   &wire.Gap{From: gap.From, To: to, CheckpointIndex: ckptIndex},
			}
			if ww.WriteFrame(&gf) != nil {
				return
			}
			caughtUp()
		case errors.Is(err, io.EOF):
			return // log complete: the End frame was the last write
		default:
			return // client context canceled
		}
	}
}

// Statuses returns every run's status ordered by ID (the list endpoint's
// body, also used by the daemon's shutdown log).
func (s *Server) Statuses() []RunStatus {
	runs := s.sorted()
	statuses := make([]RunStatus, len(runs))
	for i, r := range runs {
		statuses[i] = r.status()
	}
	return statuses
}
