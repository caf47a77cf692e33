// The programs that document the public API. `go test .` runs each in the
// configuration a reader would and compares its numbers with the pinned
// output. Every result is a function of the seeds alone — what is not (a
// listen address, a checkpoint's byte count) is checked inside the function
// instead of printed.
package specdag_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	specdag "github.com/specdag/specdag"
)

// Run a small Specializing DAG on a 3-cluster federated dataset and watch
// implicit specialization emerge — live, through the unified run API: the
// run streams typed round events and a mid-run pureness probe, and would
// stop cleanly if the context were canceled.
func Example_quickstart() {
	// A synthetic 10-class task with 30 clients grouped into three
	// clusters: clients in a cluster share class-conditional distributions,
	// so model updates from the same cluster help and others hurt.
	fed := specdag.FMNISTClustered(specdag.FMNISTConfig{Clients: 30, TrainPerClient: 60, TestPerClient: 15, Seed: 1})
	fmt.Printf("federation: %d clients in %d clusters, %d classes\n",
		len(fed.Clients), fed.NumClusters, fed.NumClasses)

	sim, err := specdag.NewSimulation(fed, specdag.Config{
		Rounds:          30,
		ClientsPerRound: 10,
		Local:           specdag.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:            specdag.Arch{In: fed.InputDim, Hidden: []int{32}, Out: fed.NumClasses},
		Selector:        specdag.AccuracyWalk{Alpha: 10}, // the paper's sweet spot
		Seed:            2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One Run call drives the whole experiment: progress arrives as typed
	// events, and the probe watches specialization emerge on the live DAG.
	_, err = specdag.Run(context.Background(), sim,
		specdag.WithHooks(specdag.Hooks{
			OnRound: func(ev specdag.RoundEvent) {
				if (ev.Round+1)%5 == 0 {
					fmt.Printf("round %2d: mean accuracy %.3f, DAG size %d\n",
						ev.Round+1, ev.MeanAcc, ev.DAGSize)
				}
			},
			OnProbe: func(ev specdag.ProbeEvent) {
				fmt.Printf("          … %s after %d rounds: %.3f\n", ev.Name, ev.Step, ev.Value)
			},
		}),
		specdag.WithProbe("approval pureness", 10, func() float64 {
			return specdag.ApprovalPureness(sim.DAG(), fed.ClusterOf())
		}),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Specialization is implicit: clients never see cluster labels, yet
	// their approvals stay within their cluster.
	pureness := specdag.ApprovalPureness(sim.DAG(), fed.ClusterOf())
	fmt.Printf("\napproval pureness: %.3f (random baseline %.3f)\n", pureness, fed.BasePureness())

	g := specdag.BuildClientGraph(sim.DAG())
	part := specdag.Louvain(g, 3)
	fmt.Printf("inferred communities: %d (true clusters: %d), modularity %.3f, misclassification %.3f\n",
		specdag.NumCommunities(part), fed.NumClusters,
		specdag.Modularity(g, part),
		specdag.Misclassification(part, fed.ClusterOf()))

	// Output:
	// federation: 30 clients in 3 clusters, 10 classes
	// round  5: mean accuracy 1.000, DAG size 48
	// round 10: mean accuracy 1.000, DAG size 88
	//           … approval pureness after 10 rounds: 0.842
	// round 15: mean accuracy 1.000, DAG size 125
	// round 20: mean accuracy 1.000, DAG size 162
	//           … approval pureness after 20 rounds: 0.910
	// round 25: mean accuracy 1.000, DAG size 196
	// round 30: mean accuracy 1.000, DAG size 226
	//           … approval pureness after 30 rounds: 0.922
	//
	// approval pureness: 0.922 (random baseline 0.333)
	// inferred communities: 3 (true clusters: 3), modularity 0.585, misclassification 0.000
}

// Explore the specialization-generalization trade-off of the accuracy-aware
// random walk by sweeping the α parameter (paper §5.3.1). High α makes the
// walk nearly deterministic (strong specialization: many small, pure
// communities); low α approaches a uniform walk (one generalized model, low
// modularity).
//
// The four runs share one worker pool: each simulation's round fan-out
// draws from the same budget, so a sweep saturates the machine without
// oversubscribing it — the same mechanism cmd/experiments uses at scale.
func Example_alphaSweep() {
	pool := specdag.NewWorkerPool(0) // one budget for the whole sweep

	fmt.Println("alpha | pureness | modularity | communities | misclassification | final acc")
	fmt.Println("------|----------|------------|-------------|-------------------|----------")
	for _, alpha := range []float64{0.1, 1, 10, 100} {
		fed := specdag.FMNISTClustered(specdag.FMNISTConfig{Clients: 30, TrainPerClient: 60, TestPerClient: 15, NoiseStd: 2.5, Seed: 7})
		sim, err := specdag.NewSimulation(fed, specdag.Config{
			Rounds:          30,
			ClientsPerRound: 10,
			Local:           specdag.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
			Arch:            specdag.Arch{In: fed.InputDim, Hidden: []int{32}, Out: fed.NumClasses},
			Selector:        specdag.AccuracyWalk{Alpha: alpha},
			Pool:            pool,
			Seed:            8,
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := specdag.Run(context.Background(), sim); err != nil {
			log.Fatal(err)
		}
		results := sim.Results()

		g := specdag.BuildClientGraph(sim.DAG())
		part := specdag.Louvain(g, 9)
		fmt.Printf("%5g | %8.3f | %10.3f | %11d | %17.3f | %.3f\n",
			alpha,
			specdag.ApprovalPureness(sim.DAG(), fed.ClusterOf()),
			specdag.Modularity(g, part),
			specdag.NumCommunities(part),
			specdag.Misclassification(part, fed.ClusterOf()),
			results[len(results)-1].MeanTrainedAcc())
	}
	fmt.Println("\nThe paper's conclusion (Fig. 5): a medium alpha (10) balances pure")
	fmt.Println("approvals and a community count matching the true clusters; alpha=1")
	fmt.Println("under-specializes and alpha=100 over-fragments the network.")

	// Output:
	// alpha | pureness | modularity | communities | misclassification | final acc
	// ------|----------|------------|-------------|-------------------|----------
	//   0.1 |    0.336 |      0.117 |           4 |             0.567 | 0.873
	//     1 |    0.407 |      0.127 |           4 |             0.433 | 0.887
	//    10 |    0.870 |      0.532 |           3 |             0.000 | 0.907
	//   100 |    0.872 |      0.579 |           4 |             0.067 | 0.907
	//
	// The paper's conclusion (Fig. 5): a medium alpha (10) balances pure
	// approvals and a community count matching the true clusters; alpha=1
	// under-specializes and alpha=100 over-fragments the network.
}

// Compare the Specializing DAG against the centralized FedAvg and FedProx
// baselines on the FedProx synthetic dataset (paper §5.3.3, Figs. 10 & 11).
// Synthetic(0.5, 0.5) gives every client a different local optimum, which
// punishes a single global model; the DAG accommodates the heterogeneity
// without any central server.
//
// All three algorithms are engines behind the same specdag.Run call — the
// comparison is a loop over engines rather than three bespoke code paths.
func Example_fedCompare() {
	const rounds, clientsPerRound = 30, 10
	fed := specdag.FedProxSynthetic(specdag.FedProxConfig{Clients: 30, MaxSamples: 300, Seed: 21})
	arch := specdag.Arch{In: fed.InputDim, Out: fed.NumClasses} // softmax regression, as in FedProx
	local := specdag.SGDConfig{LR: 0.05, Epochs: 2, BatchSize: 10}

	centralized := func(proxMu float64) *specdag.FedResult {
		eng, err := specdag.NewFederated(fed, specdag.FedConfig{
			Rounds:          rounds,
			ClientsPerRound: clientsPerRound,
			Local:           local,
			ProxMu:          proxMu,
			Arch:            arch,
			Seed:            22,
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := specdag.Run(context.Background(), eng); err != nil {
			log.Fatal(err)
		}
		return eng.Result()
	}
	fedAvg, fedProx := centralized(0), centralized(1.0)

	sim, err := specdag.NewSimulation(fed, specdag.Config{
		Rounds:          rounds,
		ClientsPerRound: clientsPerRound,
		Local:           local,
		Arch:            arch,
		Selector:        specdag.AccuracyWalk{Alpha: 10},
		Seed:            23,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The per-round curve streams out of the run as round events.
	var dagAcc, dagLoss []float64
	_, err = specdag.Run(context.Background(), sim, specdag.WithHooks(specdag.Hooks{
		OnRound: func(ev specdag.RoundEvent) {
			dagAcc = append(dagAcc, ev.MeanAcc)
			dagLoss = append(dagLoss, ev.MeanLoss)
		},
	}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("round | FedAvg acc/loss | FedProx acc/loss | DAG acc/loss")
	fmt.Println("------|-----------------|------------------|-------------")
	for r := 0; r < rounds; r += 5 {
		fmt.Printf("%5d | %.3f / %.3f   | %.3f / %.3f    | %.3f / %.3f\n",
			r+1,
			fedAvg.MeanAccs()[r], fedAvg.MeanLosses()[r],
			fedProx.MeanAccs()[r], fedProx.MeanLosses()[r],
			dagAcc[r], dagLoss[r])
	}

	tailMean := func(xs []float64) float64 {
		s := 0.0
		for _, v := range xs[len(xs)-5:] {
			s += v
		}
		return s / 5
	}
	fmt.Printf("\nfinal (last-5-round mean) accuracy:  FedAvg %.3f | FedProx %.3f | DAG %.3f\n",
		tailMean(fedAvg.MeanAccs()), tailMean(fedProx.MeanAccs()), tailMean(dagAcc))
	fmt.Printf("final (last-5-round mean) loss:      FedAvg %.3f | FedProx %.3f | DAG %.3f\n",
		tailMean(fedAvg.MeanLosses()), tailMean(fedProx.MeanLosses()), tailMean(dagLoss))
	fmt.Println("\nPer the paper: the DAG's specialized local models eventually beat the")
	fmt.Println("FedAvg global model and approach FedProx — with no central server.")

	// Output:
	// round | FedAvg acc/loss | FedProx acc/loss | DAG acc/loss
	// ------|-----------------|------------------|-------------
	//     1 | 0.050 / 2.794   | 0.050 / 3.032    | 0.665 / 0.709
	//     6 | 0.388 / 1.775   | 0.234 / 2.077    | 0.740 / 0.587
	//    11 | 0.440 / 1.716   | 0.227 / 2.077    | 0.911 / 0.255
	//    16 | 0.475 / 1.863   | 0.399 / 2.054    | 0.800 / 0.437
	//    21 | 0.488 / 1.790   | 0.373 / 2.001    | 0.857 / 0.353
	//    26 | 0.734 / 0.975   | 0.675 / 1.142    | 0.712 / 0.640
	//
	// final (last-5-round mean) accuracy:  FedAvg 0.710 | FedProx 0.667 | DAG 0.809
	// final (last-5-round mean) loss:      FedAvg 0.930 | FedProx 1.079 | DAG 0.429
	//
	// Per the paper: the DAG's specialized local models eventually beat the
	// FedAvg global model and approach FedProx — with no central server.
}

// Demonstrate the robustness of accuracy-aware tip selection against
// flipped-label attacks (paper §4.4, §5.3.4). A fraction of clients has
// labels 3 and 8 swapped in their private data (train *and* test — they are
// unaware of the forgery). The accuracy walk isolates poisoned model updates
// inside the attackers' own region of the DAG; the random tip selector
// spreads them over everyone.
func Example_poisoning() {
	const (
		cleanRounds  = 10
		attackRounds = 40
		poisonFrac   = 0.3
	)
	fmt.Printf("flipped-label attack: %d%% of clients, labels 3<->8, starting at round %d\n\n",
		int(poisonFrac*100), cleanRounds)

	fmt.Println("selector                  | benign flipped% | all flipped% | poisoned approvals in consensus")
	fmt.Println("--------------------------|-----------------|--------------|--------------------------------")
	for _, scenario := range []struct {
		name     string
		selector specdag.Selector
	}{
		{"accuracy walk (alpha=10)", specdag.AccuracyWalk{Alpha: 10}},
		{"random tip selector     ", specdag.URTS{}},
	} {
		// The poisoning experiments use the by-writer split: every client
		// holds all classes, so a 3<->8 flip is meaningful for everyone.
		// NoiseStd 2.5 keeps the task hard enough that one round of local
		// training cannot fully undo a poisoned average.
		fed := specdag.FMNISTClustered(specdag.FMNISTConfig{
			Clients: 30, TrainPerClient: 60, TestPerClient: 20, ByWriter: true, NoiseStd: 2.5, Seed: 11})
		sim, err := specdag.NewSimulation(fed, specdag.Config{
			Rounds:          cleanRounds + attackRounds,
			ClientsPerRound: 10,
			Local:           specdag.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
			Arch:            specdag.Arch{In: fed.InputDim, Hidden: []int{32}, Out: fed.NumClasses},
			Selector:        scenario.selector,
			Poison: specdag.PoisonConfig{
				Fraction:   poisonFrac,
				FlipA:      3,
				FlipB:      8,
				StartRound: cleanRounds,
				Track:      true,
			},
			Seed: 12,
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := specdag.Run(context.Background(), sim); err != nil {
			log.Fatal(err)
		}

		// Benign-only and overall flipped-prediction fractions and the
		// number of poisoned transactions approved by consensus references,
		// each a mean over the last ten rounds.
		var benign, all, approvals float64
		results := sim.Results()
		tail := results[len(results)-10:]
		for _, rr := range tail {
			benign += rr.MeanFlippedFracBenign()
			all += rr.MeanFlippedFrac()
			approvals += rr.MeanRefPoisonedApprovals()
		}
		n := float64(len(tail))
		fmt.Printf("%s  | %14.1f%% | %11.1f%% | %.1f\n",
			scenario.name, benign/n*100, all/n*100, approvals/n)
	}

	fmt.Println("\nBenign clients stay cleaner under the accuracy walk: their walks route")
	fmt.Println("around poisoned model updates, whose accuracy looks poor on honest test")
	fmt.Println("data. Poisoned clients keep selecting each other, which contains the")
	fmt.Println("attack but also makes it hard for them to detect (paper §5.3.4).")

	// Output:
	// flipped-label attack: 30% of clients, labels 3<->8, starting at round 10
	//
	// selector                  | benign flipped% | all flipped% | poisoned approvals in consensus
	// --------------------------|-----------------|--------------|--------------------------------
	// accuracy walk (alpha=10)  |           14.9% |        17.2% | 64.3
	// random tip selector       |           15.3% |        15.3% | 64.0
	//
	// Benign clients stay cleaner under the accuracy walk: their walks route
	// around poisoned model updates, whose accuracy looks poor on honest test
	// data. Poisoned clients keep selecting each other, which contains the
	// attack but also makes it hard for them to detect (paper §5.3.4).
}

// replaceAtomically is a WithCheckpoints save that replaces the checkpoint at
// path: the new one is written beside it, synced and renamed over it, so a
// crash or a failed write leaves the previous checkpoint intact instead of a
// truncated file.
func replaceAtomically(path string) func(specdag.Checkpoint) error {
	return func(c specdag.Checkpoint) error {
		f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*")
		if err != nil {
			return err
		}
		_, err = c.WriteTo(f)
		if err = errors.Join(err, f.Sync(), f.Close()); err == nil {
			err = os.Rename(f.Name(), path)
		}
		if err != nil {
			os.Remove(f.Name())
		}
		return err
	}
}

// Run the Specializing DAG without rounds, as a real deployment would
// (paper §5.3.3): every client trains continuously at its own speed, and
// published models propagate with a network delay.
//
// Two deployment properties at once. First, "no stragglers": a client that
// is 8x slower than another simply contributes fewer updates — it never
// blocks anyone, unlike a synchronized FedAvg round that waits for the
// slowest participant. Second, crash recovery: the supervisor checkpoints
// the engine's full state every few events, the process "crashes" mid-run
// (a canceled context), and a fresh engine resumes from the last checkpoint
// — finishing with results bit-identical to a run that was never
// interrupted (the pinned output is the uninterrupted run's).
func Example_asyncDAG() {
	const duration = 120.0 // simulated seconds
	fed := specdag.FMNISTClustered(specdag.FMNISTConfig{Clients: 20, TrainPerClient: 60, TestPerClient: 15, Seed: 31})
	cfg := specdag.AsyncConfig{
		Duration:     duration,
		MinCycle:     1, // fastest client: one cycle per second
		MaxCycle:     8, // slowest: one cycle per 8 seconds
		NetworkDelay: 0.5,
		Local:        specdag.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 10},
		Arch:         specdag.Arch{In: fed.InputDim, Hidden: []int{32}, Out: fed.NumClasses},
		Selector:     specdag.AccuracyWalk{Alpha: 10},
		Seed:         32,
	}
	async, err := specdag.NewAsyncSimulation(fed, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// --- Act 1: supervise the runner, checkpointing every few events,
	// until it "crashes" halfway through the simulated horizon.
	dir, err := os.MkdirTemp("", "asyncdag-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckptPath := filepath.Join(dir, "run.sda")
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	_, err = specdag.Run(ctx, async,
		specdag.WithCheckpoints(5, replaceAtomically(ckptPath)),
		specdag.WithHooks(specdag.Hooks{
			OnRound: func(ev specdag.RoundEvent) {
				if ev.Time > duration/2 {
					crash() // simulate the process dying mid-run
				}
			},
		}))
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("run ended with %v, want a cancellation", err)
	}
	fmt.Printf("supervisor: process crashed after %d events (t≈%.0fs of %.0fs) — last checkpoint on disk\n",
		async.Events(), duration/2, duration)

	// --- Act 2: a fresh engine resumes from the checkpoint and finishes.
	f, err := os.Open(ckptPath)
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := specdag.ResumeAsyncSimulation(fed, cfg, f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("supervisor: restarted from event %d (%d transactions in the DAG)\n\n",
		resumed.Events(), resumed.DAG().Size())
	if _, err := specdag.Run(context.Background(), resumed); err != nil {
		log.Fatal(err)
	}
	res := resumed.Result()

	clients := append([]specdag.AsyncClientStats(nil), res.Clients...)
	sort.Slice(clients, func(i, j int) bool { return clients[i].CycleTime < clients[j].CycleTime })

	publishes := 0
	for _, c := range res.Clients {
		publishes += c.Published
	}
	fmt.Printf("simulated %.0fs: %d activations, %d publish events, %d transactions in the DAG\n\n",
		res.SimulatedTime, resumed.Events(), publishes, res.Transactions)
	fmt.Println("client | cycle time | cycles done | published | final acc")
	fmt.Println("-------|------------|-------------|-----------|----------")
	for _, c := range clients {
		fmt.Printf("%6d | %9.2fs | %11d | %9d | %.3f\n",
			c.ID, c.CycleTime, c.Cycles, c.Published, c.FinalAcc)
	}

	fastest, slowest := clients[0], clients[len(clients)-1]
	fmt.Printf("\nfastest client completed %dx the work of the slowest (%d vs %d cycles)\n",
		fastest.Cycles/max(1, slowest.Cycles), fastest.Cycles, slowest.Cycles)
	fmt.Println("— and neither ever waited for the other: there is no synchronized round.")
	fmt.Println("— and the mid-run crash cost nothing: the checkpoint resumed bit-identically.")

	// Output:
	// supervisor: process crashed after 361 events (t≈60s of 120s) — last checkpoint on disk
	// supervisor: restarted from event 360 (258 transactions in the DAG)
	//
	// simulated 120s: 723 activations, 536 publish events, 537 transactions in the DAG
	//
	// client | cycle time | cycles done | published | final acc
	// -------|------------|-------------|-----------|----------
	//     13 |      1.06s |         114 |        73 | 1.000
	//     17 |      1.63s |          73 |        60 | 1.000
	//      1 |      1.87s |          64 |        54 | 1.000
	//      4 |      2.36s |          51 |        38 | 1.000
	//     11 |      2.39s |          50 |        34 | 1.000
	//     18 |      2.52s |          47 |        38 | 1.000
	//     15 |      3.20s |          38 |        22 | 1.000
	//      2 |      3.64s |          33 |        28 | 1.000
	//      8 |      4.09s |          30 |        21 | 1.000
	//      6 |      4.49s |          27 |        21 | 1.000
	//      5 |      4.94s |          25 |        19 | 1.000
	//     19 |      5.16s |          23 |        19 | 0.933
	//      3 |      5.40s |          22 |        16 | 1.000
	//      9 |      5.86s |          20 |        16 | 1.000
	//      7 |      6.26s |          19 |        17 | 1.000
	//     12 |      6.29s |          19 |        17 | 1.000
	//     10 |      6.71s |          17 |         9 | 1.000
	//     16 |      6.87s |          18 |        13 | 1.000
	//      0 |      7.11s |          17 |        12 | 1.000
	//     14 |      7.56s |          16 |         9 | 1.000
	//
	// fastest client completed 7x the work of the slowest (114 vs 16 cycles)
	// — and neither ever waited for the other: there is no synchronized round.
	// — and the mid-run crash cost nothing: the checkpoint resumed bit-identically.
}

// Boot the specdagd serving stack in-process, submit an asynchronous DAG-FL
// run over its HTTP API, and watch the experiment from subscribers with very
// different appetites.
//
// The serving subsystem's core guarantee: a slow consumer never stalls the
// engine. What a consumer that fell more than a ring behind gets instead is
// the daemon's choice. With a spill directory the overwritten frames are
// replayed from disk, and every subscriber — the "live" one that follows the
// run as it happens, however the scheduler treats it, or one that asks for
// the whole history afterwards — sees every event. Without one the server
// cannot replay what its bounded ring has dropped: instead of blocking the
// engine (or buffering without bound) it tells the "late" subscriber exactly
// which frames are gone and where the latest checkpoint is, and continues
// from the oldest retained frame. The subscriber picks its own recovery:
// accept the gap (drop semantics) or fetch /runs/{id}/checkpoint and rebuild
// state (snapshot semantics). Two daemons host the same request here, one of
// each kind: a run is a function of its request, so theirs is one stream.
func Example_liveView() {
	const duration = 120.0 // simulated seconds
	const ring = 64        // deliberately tiny, so the run laps it many times over
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// --- Boot two daemons in-process: the same serving stack cmd/specdagd
	// wraps, each mounted on an ephemeral localhost port. They differ in one
	// setting: the first mirrors every event log to a spill directory.
	spill, err := os.MkdirTemp("", "specdag-liveview-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(spill)
	boot := func(cfg specdag.ServeConfig) (base string, stop func()) {
		srv := specdag.NewServer(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		return "http://" + ln.Addr().String(), func() {
			if err := srv.Shutdown(ctx); err != nil {
				log.Fatal(err)
			}
			httpSrv.Close()
		}
	}
	base, stop := boot(specdag.ServeConfig{Ring: ring, CheckpointEvery: 10, SpillDir: spill})
	defer stop()
	lossy, stopLossy := boot(specdag.ServeConfig{Ring: ring, CheckpointEvery: 10})
	defer stopLossy()

	// --- Submit an asynchronous run over the HTTP API, exactly as a remote
	// client (or curl) would — the same request to both daemons.
	body, _ := json.Marshal(specdag.RunRequest{
		Dataset:  "fmnist",
		Seed:     42,
		Async:    true,
		Duration: duration,
		Label:    "liveview",
	})
	submit := func(base string) specdag.RunStatus {
		resp, err := http.Post(base+"/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var st specdag.RunStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			log.Fatal(err)
		}
		return st
	}
	st, lossySt := submit(base), submit(lossy)
	fmt.Printf("daemon: accepted run %d (%s engine, %.0fs horizon)\n\n", st.ID, st.Engine, duration)

	// --- Subscriber 1, "live": follows from the first frame and replays the
	// stream into ordinary engine hooks — the same types, order and field
	// values a local observer attached via specdag.WithHooks would see.
	type tally struct {
		rounds, publishes int
		lastAcc           float64
		end               *specdag.EventEnd
	}
	follow := func(base string, id int, tl *tally, onRound func(specdag.RoundEvent), onFrame func(specdag.EventFrame)) {
		var err error
		tl.end, err = specdag.Subscribe(ctx, base, id, specdag.SubscribeOptions{
			OnFrame: onFrame,
			Hooks: specdag.Hooks{
				OnRound: func(ev specdag.RoundEvent) {
					tl.rounds++
					tl.lastAcc = ev.MeanAcc
					if onRound != nil {
						onRound(ev)
					}
				},
				OnPublish: func(specdag.PublishEvent) { tl.publishes++ },
			},
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	liveDone := make(chan tally, 1)
	go func() {
		var tl tally
		follow(base, st.ID, &tl, func(ev specdag.RoundEvent) {
			if tl.rounds%50 == 0 {
				fmt.Printf("live   : t≈%5.1fs  %4d activations  mean acc %.3f\n",
					ev.Time, tl.rounds, ev.MeanAcc)
			}
		}, nil)
		liveDone <- tl
	}()

	// --- Wait for the engines to finish. The live subscriber is streaming
	// the whole time; the engine never waits for it (appends to the event
	// ring are O(1) and non-blocking), and when it does fall a ring behind —
	// on a busy machine it will — the daemon serves it the difference from the
	// spill file.
	wait := func(base string, st *specdag.RunStatus) {
		for st.State == "running" {
			time.Sleep(50 * time.Millisecond)
			r, err := http.Get(fmt.Sprintf("%s/runs/%d", base, st.ID))
			if err != nil {
				log.Fatal(err)
			}
			err = json.NewDecoder(r.Body).Decode(st)
			r.Body.Close()
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	wait(base, &st)
	wait(lossy, &lossySt)
	live := <-liveDone
	fmt.Printf("\nlive   : run %s after %d activations, %d publishes, final mean acc %.3f\n",
		st.State, live.rounds, live.publishes, live.lastAcc)

	// --- Subscriber 2, "late": asks the daemon without a spill directory for
	// the stream from index 0 after the 64-frame ring has long since wrapped.
	// The server does not block or buffer for it — it reports the dropped
	// range and carries on from the oldest retained frame.
	var lateTl tally
	var gap *specdag.EventFrame
	follow(lossy, lossySt.ID, &lateTl, nil, func(f specdag.EventFrame) {
		if f.Kind == specdag.EventKindGap {
			gap = &f
		}
	})
	if gap == nil {
		log.Fatal("late subscriber saw no gap: the run fit a 64-frame ring")
	}
	fmt.Printf("late   : server dropped frames [%d, %d) — too slow for a %d-frame ring\n",
		gap.Gap.From, gap.Gap.To, ring)
	fmt.Printf("late   : saw only %d of %d activations (drop semantics), same final acc %.3f\n",
		lateTl.rounds, live.rounds, lateTl.lastAcc)

	// Snapshot semantics, the other recovery: instead of accepting the gap,
	// fetch the run's checkpoint and rebuild state from it.
	cr, err := http.Get(fmt.Sprintf("%s/runs/%d/checkpoint", lossy, lossySt.ID))
	if err != nil {
		log.Fatal(err)
	}
	ckpt, err := io.ReadAll(cr.Body)
	cr.Body.Close()
	if err != nil || len(ckpt) == 0 || int64(len(ckpt)) != cr.ContentLength {
		log.Fatalf("checkpoint download: %d of %d bytes, %v", len(ckpt), cr.ContentLength, err)
	}
	fmt.Printf("late   : (or snapshot semantics: the checkpoint at index %s, resume the stream from there)\n",
		cr.Header.Get("X-Specdag-Checkpoint-Index"))

	// The same late request to the daemon that spills: nothing is gone.
	var replayTl tally
	follow(base, st.ID, &replayTl, nil, func(f specdag.EventFrame) {
		if f.Kind == specdag.EventKindGap {
			log.Fatalf("a spilling daemon dropped frames [%d, %d)", f.Gap.From, f.Gap.To)
		}
	})
	fmt.Printf("late   : (or a daemon with a spill directory: all %d of %d activations, replayed from disk)\n",
		replayTl.rounds, live.rounds)

	// One request, one stream: the ends agree whoever hosted the run, and the
	// replayed history is the live one.
	if *lateTl.end != *live.end || lateTl.lastAcc != live.lastAcc {
		log.Fatalf("the two daemons' runs diverged: %+v vs %+v", lateTl, live)
	}
	if *replayTl.end != *live.end || replayTl.rounds != live.rounds || replayTl.publishes != live.publishes || replayTl.lastAcc != live.lastAcc {
		log.Fatalf("the replayed stream is not the live one: %+v vs %+v", replayTl, live)
	}
	fmt.Printf("\nall subscribers agree: %d engine steps, final mean acc %.3f\n",
		live.end.Steps, live.lastAcc)
	fmt.Println("— and none ever slowed an engine down: slow consumers drop or replay, they don't stall.")

	// Output:
	// daemon: accepted run 1 (specdag-async engine, 120s horizon)
	//
	// live   : t≈  5.3s    50 activations  mean acc 0.733
	// live   : t≈ 10.8s   100 activations  mean acc 0.600
	// live   : t≈ 16.1s   150 activations  mean acc 1.000
	// live   : t≈ 21.8s   200 activations  mean acc 0.800
	// live   : t≈ 27.2s   250 activations  mean acc 0.933
	// live   : t≈ 32.5s   300 activations  mean acc 0.867
	// live   : t≈ 38.0s   350 activations  mean acc 0.933
	// live   : t≈ 43.8s   400 activations  mean acc 0.800
	// live   : t≈ 49.1s   450 activations  mean acc 0.733
	// live   : t≈ 54.7s   500 activations  mean acc 0.933
	// live   : t≈ 59.8s   550 activations  mean acc 0.867
	// live   : t≈ 65.2s   600 activations  mean acc 0.800
	// live   : t≈ 70.9s   650 activations  mean acc 0.867
	// live   : t≈ 76.7s   700 activations  mean acc 0.867
	// live   : t≈ 81.8s   750 activations  mean acc 0.933
	// live   : t≈ 87.3s   800 activations  mean acc 1.000
	// live   : t≈ 93.3s   850 activations  mean acc 0.933
	// live   : t≈ 98.0s   900 activations  mean acc 0.867
	// live   : t≈103.5s   950 activations  mean acc 0.933
	// live   : t≈109.3s  1000 activations  mean acc 0.800
	// live   : t≈114.6s  1050 activations  mean acc 0.800
	// live   : t≈120.0s  1100 activations  mean acc 1.000
	//
	// live   : run done after 1100 activations, 559 publishes, final mean acc 1.000
	// late   : server dropped frames [0, 1707) — too slow for a 64-frame ring
	// late   : saw only 43 of 1100 activations (drop semantics), same final acc 1.000
	// late   : (or snapshot semantics: the checkpoint at index 1769, resume the stream from there)
	// late   : (or a daemon with a spill directory: all 1100 of 1100 activations, replayed from disk)
	//
	// all subscribers agree: 1100 engine steps, final mean acc 1.000
	// — and none ever slowed an engine down: slow consumers drop or replay, they don't stall.
}
