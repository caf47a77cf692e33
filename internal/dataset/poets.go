package dataset

import (
	"fmt"

	"github.com/specdag/specdag/internal/xrand"
)

// PoetsConfig parameterizes the synthetic stand-in for the paper's Poets
// dataset (§5.1.2): next-character prediction on texts from two "poets"
// (Shakespeare in English, Goethe in German), each client holding text from
// exactly one language — two natural clusters.
//
// Each language is modeled as an order-1 Markov chain over a 27-symbol
// alphabet (a–z plus space) with a distinct, seeded transition structure.
// Clients generate a private stream from their language's chain; samples are
// sliding windows of Window one-hot characters with the following character
// as the label. The dominant-successor structure bounds achievable accuracy
// around 0.5–0.6, matching the flavor of LSTM next-char accuracy in LEAF.
type PoetsConfig struct {
	// ClientsPerLanguage is the number of clients holding each language
	// (default 15, i.e. 30 clients total).
	ClientsPerLanguage int
	// CharsPerClient is the length of each client's private text stream
	// (default 620, yielding ~555 train / 62 test windows).
	CharsPerClient int
	// Window is the number of preceding characters fed to the model
	// (default 3; input dim = Window*27).
	Window int
	// Seed drives all randomness.
	Seed int64
}

func (c PoetsConfig) withDefaults() PoetsConfig {
	if c.ClientsPerLanguage == 0 {
		c.ClientsPerLanguage = 15
	}
	if c.CharsPerClient == 0 {
		c.CharsPerClient = 620
	}
	if c.Window == 0 {
		c.Window = 3
	}
	return c
}

// poetsAlphabet is the symbol count: 26 letters plus space.
const poetsAlphabet = 27

// Poets generates the two-language next-character-prediction federation.
func Poets(cfg PoetsConfig) *Federation {
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed).Split("poets")

	languages := []string{"english", "german"}
	chains := make([][][]float64, len(languages))
	for li, lang := range languages {
		chains[li] = markovChain(rng.Split("chain-" + lang))
	}

	fed := &Federation{
		Name:        "poets",
		InputDim:    cfg.Window * poetsAlphabet,
		NumClasses:  poetsAlphabet,
		NumClusters: len(languages),
	}

	n := cfg.CharsPerClient - cfg.Window
	fed.Clients = generateClients(len(languages)*cfg.ClientsPerLanguage, func(id int) *Client {
		li := id / cfg.ClientsPerLanguage
		crng := rng.SplitIndex("client", id)
		text := sampleChain(crng.Split("text"), chains[li], cfg.CharsPerClient)
		bld := NewBuilder(fed.InputDim, max(n, 0), 0.1, crng.Split("split"))
		windowsInto(bld, text, cfg.Window)
		train, test := bld.Parts()
		return &Client{ID: id, Cluster: li, Train: train, Test: test}
	})
	if err := fed.Validate(); err != nil {
		panic(fmt.Sprintf("dataset: generated invalid Poets federation: %v", err))
	}
	return fed
}

// markovChain builds a 27x27 row-stochastic transition matrix with a skewed
// successor structure: every character has three preferred successors
// carrying most of the probability mass, with the remainder spread uniformly.
// Different seeds (languages) get different preferred-successor patterns.
func markovChain(rng *xrand.RNG) [][]float64 {
	const n = poetsAlphabet
	chain := make([][]float64, n)
	for c := 0; c < n; c++ {
		row := make([]float64, n)
		// Background mass.
		rest := 0.10
		for j := range row {
			row[j] = rest / float64(n)
		}
		// Three preferred successors with 0.55/0.25/0.10.
		succ := rng.SampleWithoutReplacement(n, 3)
		row[succ[0]] += 0.55
		row[succ[1]] += 0.25
		row[succ[2]] += 0.10
		chain[c] = row
	}
	return chain
}

// sampleChain draws a character stream of the given length from the chain.
func sampleChain(rng *xrand.RNG, chain [][]float64, length int) []int {
	text := make([]int, length)
	cur := rng.Intn(len(chain))
	for i := 0; i < length; i++ {
		cur = rng.WeightedChoice(chain[cur])
		text[i] = cur
	}
	return text
}

// windowsInto grows one (window -> next char) sample per position of the
// character stream into bld, one-hot encoding each window into its
// (zeroed) row.
func windowsInto(bld *Builder, text []int, window int) {
	for i := window; i < len(text); i++ {
		x := bld.Grow(text[i])
		for w := 0; w < window; w++ {
			x[w*poetsAlphabet+text[i-window+w]] = 1
		}
	}
}
