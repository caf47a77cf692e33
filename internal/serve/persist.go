package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/wire"
)

// manifest is the on-disk index of a server's runs (Config.Dir/runs.json).
type manifest struct {
	NextID int             `json:"next_id"`
	Runs   []manifestEntry `json:"runs"`
}

type manifestEntry struct {
	ID              int        `json:"id"`
	Request         RunRequest `json:"request"`
	State           string     `json:"state"`
	Steps           int        `json:"steps"`
	Err             string     `json:"err,omitempty"` // how a terminal run ended; empty if it completed
	CheckpointFile  string     `json:"checkpoint_file,omitempty"`
	CheckpointIndex uint64     `json:"checkpoint_index"`
	CheckpointStep  int        `json:"checkpoint_step"`
}

// keep installs c as the run's latest checkpoint and announces it with a
// Checkpoint frame, at the index c resumes from: the one way a hosted run's
// checkpoints arrive, from the cadence (the engine loop, between units) and
// from a pause (settle, after the job has stopped). Without Config.Dir c is a
// capture, encoded only when someone reads it; with it, c is written to its
// own file, then named by the manifest, then the file it replaced goes. A
// failed write fails the run and leaves the previous manifest and file whole.
func (s *Server) keep(r *run, c engine.Checkpoint) error {
	r.mu.Lock()
	index, step := r.b.NextIndex(), r.steps
	r.mu.Unlock()
	file := ""
	if s.cfg.Dir != "" {
		ext := ".sdc"
		if r.req.Async {
			ext = ".sda"
		}
		file = fmt.Sprintf("run-%d-%d%s", r.id, index, ext)
		if err := engine.WriteAtomic(filepath.Join(s.cfg.Dir, file), c); err != nil {
			return fmt.Errorf("serve: writing run %d checkpoint: %w", r.id, err)
		}
	}
	r.mu.Lock()
	r.ckpt, r.ckptIndex, r.ckptStep, r.ckptFile = c, index, step, file
	r.mu.Unlock()
	r.b.Append(wire.Frame{Kind: wire.KindCheckpoint, Checkpoint: &wire.Checkpoint{Step: step, Size: c.Size()}})
	return s.writeManifest()
}

// writeManifest rewrites runs.json from the registry under persistMu, then
// removes the checkpoint files the previous manifest named and this one does
// not. It is never called under a run's lock. Only keep fails on its error: a
// failed rewrite leaves the previous manifest whole, and the next catches up.
func (s *Server) writeManifest() error {
	if s.cfg.Dir == "" {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	s.mu.Lock()
	m := manifest{NextID: s.nextID}
	s.mu.Unlock()
	named := make(map[string]bool)
	for _, r := range s.sorted() {
		r.mu.Lock()
		m.Runs = append(m.Runs, manifestEntry{
			ID:              r.id,
			Request:         r.req,
			State:           r.state,
			Steps:           r.steps,
			Err:             r.err,
			CheckpointFile:  r.ckptFile,
			CheckpointIndex: r.ckptIndex,
			CheckpointStep:  r.ckptStep,
		})
		named[r.ckptFile] = true
		r.mu.Unlock()
	}
	delete(named, "")
	blob, err := json.MarshalIndent(&m, "", "  ")
	if err == nil {
		err = engine.WriteAtomic(filepath.Join(s.cfg.Dir, "runs.json"), bytes.NewReader(blob))
	}
	if err != nil {
		return fmt.Errorf("serve: writing manifest: %w", err)
	}
	for f := range s.named {
		if !named[f] {
			os.Remove(filepath.Join(s.cfg.Dir, f)) // one left behind only costs disk
		}
	}
	s.named = named
	return nil
}

// checkpointFile is a checkpoint as its bytes: the file Restore read.
type checkpointFile []byte

func (b checkpointFile) Size() int64 { return int64(len(b)) }

func (b checkpointFile) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(b)
	return int64(n), err
}

// Restore re-registers the runs a previous daemon left in Config.Dir, shut
// down or killed: paused ones paused at their checkpoints, running ones from
// theirs (or from their requests) and running on, each log restarting at the
// checkpoint index — subscribers resume from the checkpoint, the recovery the
// format is built around. Terminal runs come back as closed status records,
// each with the state, error and End frame it ended with. Missing manifest is
// not an error: a fresh Dir restores nothing.
func (s *Server) Restore() (int, error) {
	if s.cfg.Dir == "" {
		return 0, nil
	}
	blob, err := os.ReadFile(filepath.Join(s.cfg.Dir, "runs.json"))
	if os.IsNotExist(err) {
		return 0, nil
	} else if err != nil {
		return 0, fmt.Errorf("serve: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return 0, fmt.Errorf("serve: decoding manifest: %w", err)
	}
	// Before any entry, so a manifest without runs still retires its IDs.
	s.mu.Lock()
	s.nextID = max(s.nextID, m.NextID)
	s.mu.Unlock()
	for i, e := range m.Runs {
		e.Request.normalize()
		r := &run{
			id:        e.ID,
			req:       e.Request,
			state:     e.State,
			steps:     e.Steps,
			ckptIndex: e.CheckpointIndex,
			ckptStep:  e.CheckpointStep,
			ckptFile:  e.CheckpointFile,
		}
		switch e.State {
		case StatePaused, StateRunning:
			if e.CheckpointFile != "" {
				ckpt, err := os.ReadFile(filepath.Join(s.cfg.Dir, e.CheckpointFile))
				if err != nil {
					return i, fmt.Errorf("serve: reading run %d checkpoint: %w", e.ID, err)
				}
				r.ckpt = checkpointFile(ckpt)
			}
			// Paused at its checkpoint, a running run resumes once the
			// registry is whole. Its log spills to a fresh file, and a Start
			// frame takes the checkpoint frame's index.
			r.state, r.steps = StatePaused, e.CheckpointStep
			r.b = s.newLog(e.ID, e.CheckpointIndex)
			info := e.Request.Info()
			r.b.Append(wire.Frame{Kind: wire.KindStart, Start: &info})
		default:
			// A terminal run ends again as it ended; a manifest that kept no
			// error says so only for a run that did not complete.
			msg := e.Err
			if msg == "" && e.State != StateDone {
				msg = "terminated before daemon restart"
			}
			r.b = NewBroadcaster(s.cfg.Ring, 0)
			r.end(e.State, msg)
		}
		s.mu.Lock()
		s.runs[r.id] = r
		s.nextID = max(s.nextID, r.id+1)
		s.mu.Unlock()
	}
	s.writeManifest() // names every restored file, which the next rewrites may then replace
	for _, e := range m.Runs {
		if e.State == StateRunning {
			s.Resume(e.ID) // a failure ends the run, with the error in its status and End frame
		}
	}
	return len(m.Runs), nil
}
