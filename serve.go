package specdag

// The serving surface: a network daemon API for hosting runs and streaming
// their live event logs to many subscribers (internal/serve), in the SDE2
// event-stream codec (internal/wire). Example_liveView runs the whole stack
// in-process.

import (
	"context"

	"github.com/specdag/specdag/internal/serve"
	"github.com/specdag/specdag/internal/wire"
)

// ServeConfig parameterizes a Server: the shared worker budget all hosted
// runs draw from, the per-run event ring capacity, the default checkpoint
// cadence, and the directory Shutdown persists paused runs into.
type ServeConfig = serve.Config

// Server hosts many concurrent experiment runs on one shared worker budget
// and serves their lifecycle and live event streams over HTTP:
//
//	POST /runs                   submit a RunRequest, returns RunStatus
//	GET  /runs                   list all runs
//	GET  /runs/{id}              one run's RunStatus
//	POST /runs/{id}/pause        stop at the next unit boundary + checkpoint
//	POST /runs/{id}/resume       continue from the checkpoint, bit-identically
//	POST /runs/{id}/cancel       stop for good
//	GET  /runs/{id}/checkpoint   latest checkpoint (SDC3/SDA3), encoded as it is sent
//	GET  /runs/{id}/events?from=N   SDE2 event stream from index N
//
// cmd/specdagd wraps a Server in a standalone daemon.
type Server = serve.Server

// NewServer creates a serving Server (mount its Handler on any
// http.Server, stop it with Shutdown).
func NewServer(cfg ServeConfig) *Server { return serve.NewServer(cfg) }

// RunRequest is the JSON body of POST /runs — the network form of the
// cmd/specdag flag set.
type RunRequest = serve.RunRequest

// RunStatus is the JSON shape of the server's status endpoints.
type RunStatus = serve.RunStatus

// SubscribeOptions configures Subscribe.
type SubscribeOptions = serve.SubscribeOptions

// Subscribe follows a hosted run's event stream and replays it into Hooks,
// reconnecting and resuming from the last delivered index when the
// connection drops — a remote observer sees exactly what a local Hooks
// observer would, field for field.
func Subscribe(ctx context.Context, baseURL string, id int, opt SubscribeOptions) (*EventEnd, error) {
	return serve.Subscribe(ctx, baseURL, id, opt)
}

// EventFrame is one frame of an SDE2 event stream: an index, a kind, and
// exactly one payload (a run event or a lifecycle record).
type EventFrame = wire.Frame

// EventKindGap is the kind of the frame that tells a subscriber which index
// range it missed (EventFrame.Gap) after falling more than a ring behind.
const EventKindGap = wire.KindGap

// EventEnd is the final frame's payload: how the run ended.
type EventEnd = wire.End
