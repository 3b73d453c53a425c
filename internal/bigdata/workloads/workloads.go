// Package workloads defines the 16 BigDataBench algorithms of the paper's
// Table I and synthesizes the 32 concrete workloads (each algorithm on the
// Hadoop/Hive and Spark/Shark stacks) as trace profiles for the machine
// simulator.
//
// A workload's behaviour is the blend of two layers, weighted by the
// stack's Dominance (§V-A: "the impact of software stacks is greater than
// that of algorithms"):
//
//	params = Blend(algorithm user code, stack middleware, stack.Dominance)
//
// The algorithm's data traits (footprint, skew, sequentiality) are derived
// from data generated by the BDGS analog at simulation scale, then scaled
// by the stack's DataScale (Spark's in-memory RDDs enlarge the live
// footprint).
package workloads

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/bigdata/bdgs"
	"repro/internal/bigdata/stack"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Category labels from Table I.
const (
	CategoryOffline     = "Offline Analytics"
	CategoryInteractive = "Interactive Analytics"
)

// Workload is one of the 32 concrete benchmark instances.
type Workload struct {
	Name        string // e.g. "H-Sort", "S-PageRank"
	Algorithm   string
	Stack       stack.Profile
	Category    string
	ProblemSize string // Table I problem-size column
	DataType    string // Table I data-type column
	Profile     trace.Profile
}

// DataTraits carries what the workload models need to know about the
// generated input data.
type DataTraits struct {
	FootprintB uint64
	Skew       float64 // access-concentration knob in [0, 0.9]
	SeqBias    float64 // additional sequentiality from the data layout
}

// algorithm is the stack-independent description of one Table I entry.
type algorithm struct {
	name        string
	category    string
	problemSize string
	dataType    string
	// paperBytes is the Table I dataset size (estimated from record
	// counts where the paper reports records rather than bytes).
	paperBytes uint64
	// user is the user-code contribution to the instruction stream. Its
	// DataFootprintB is overwritten from derived data traits.
	user trace.Params
	// shuffleIntensity in [0, 0.5]: fraction of execution in shuffle/IO
	// phases.
	shuffleIntensity float64
	// deriveSkew measures access concentration from BDGS-generated data.
	deriveSkew func(r *rng.RNG) (float64, error)
	// tweak applies per-engine adjustments after blending (used for the
	// paper's documented outliers, e.g. S-Kmeans's instruction-TLB churn).
	tweak map[stack.Engine]func(*trace.Profile)
}

// skewFromConcentration maps a measured concentration statistic in [0,1]
// (top-word frequency, hub-degree mass, key skew) onto the generator's
// skew knob.
func skewFromConcentration(m float64) float64 {
	s := 0.3 + float64(0.6*m)
	return math.Min(s, 0.88)
}

func textSkew(words, vocab int, s float64) func(r *rng.RNG) (float64, error) {
	return func(r *rng.RNG) (float64, error) {
		_, st, err := bdgs.GenerateText(r, words, vocab, s)
		if err != nil {
			return 0, err
		}
		// TopWordFreq is in (0,1]; amplify: 5% top-word mass is already
		// very skewed for cache purposes.
		return skewFromConcentration(math.Min(st.TopWordFreq*8, 1)), nil
	}
}

func graphSkew(vertices, epv int) func(r *rng.RNG) (float64, error) {
	return func(r *rng.RNG) (float64, error) {
		_, st, err := bdgs.GenerateGraph(r, vertices, epv)
		if err != nil {
			return 0, err
		}
		return skewFromConcentration(st.DegreeSkew * 2), nil
	}
}

func tableSkew(rows, keyCard int, s float64) func(r *rng.RNG) (float64, error) {
	return func(r *rng.RNG) (float64, error) {
		_, st, err := bdgs.GenerateTable(r, rows, 8, keyCard, s)
		if err != nil {
			return 0, err
		}
		return skewFromConcentration(math.Min(st.KeySkew*10, 1)), nil
	}
}

func uniformSkew(v float64) func(r *rng.RNG) (float64, error) {
	return func(*rng.RNG) (float64, error) { return v, nil }
}

const gb = 1 << 30

// user code baselines: user functions are small (50-some lines for
// WordCount, §V-A), so user code footprints are tens to hundreds of KB.
func baseUser() trace.Params {
	return trace.Params{
		LoadFrac: 0.28, StoreFrac: 0.08, BranchFrac: 0.17, FPFrac: 0.005, SSEFrac: 0.01,
		KernelFrac:     0.02,
		UopsPerInstr:   1.35,
		ComplexFrac:    0.08,
		DepFrac:        0.25,
		BranchEntropy:  0.12,
		CodeFootprintB: 192 << 10, CodeJumpFrac: 0.10, CodeSkew: 0.5,
		DataFootprintB: 16 << 20, DataSkew: 0.4, SeqFrac: 0.4,
		SharedFrac: 0.0, SharedFootprintB: 1 << 20, SharedWriteFrac: 0.1,
	}
}

// algorithms returns the 16 Table I entries.
func algorithms() []algorithm {
	mk := func(f func(*trace.Params)) trace.Params {
		p := baseUser()
		f(&p)
		return p
	}
	return []algorithm{
		{
			name: "Sort", category: CategoryOffline,
			problemSize: "80 GB", dataType: "unstructured sequence file",
			paperBytes: 80 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.30, 0.16
				p.SeqFrac = 0.55
				p.BranchEntropy = 0.25 // data-dependent comparisons
				p.DepFrac = 0.35
			}),
			shuffleIntensity: 0.40,
			deriveSkew:       uniformSkew(0.30), // uniform random keys
		},
		{
			name: "WordCount", category: CategoryOffline,
			problemSize: "98 GB", dataType: "unstructured text",
			paperBytes: 98 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.28, 0.09
				p.BranchFrac = 0.20
				p.SeqFrac = 0.50 // scan input, hash hot words
				p.DepFrac = 0.30
			}),
			shuffleIntensity: 0.20,
			deriveSkew:       textSkew(60000, 8000, 1.0),
			tweak: map[stack.Engine]func(*trace.Profile){
				// S-WordCount is a PC4 outlier: heavy closure churn gives
				// it instruction-TLB pressure and poor L2 locality (§V-B).
				stack.EngineSpark: func(p *trace.Profile) {
					p.Compute.CodeFootprintB *= 2
					p.Compute.CodeJumpFrac += 0.05
					p.Compute.CodeSkew = 0.18
				},
			},
		},
		{
			name: "Grep", category: CategoryOffline,
			problemSize: "98 GB", dataType: "unstructured text",
			paperBytes: 98 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.31, 0.03
				p.BranchFrac = 0.24 // per-byte matching
				p.SeqFrac = 0.88
				p.BranchEntropy = 0.08
				p.DepFrac = 0.18
			}),
			shuffleIntensity: 0.08,
			deriveSkew:       uniformSkew(0.25),
			tweak: map[stack.Engine]func(*trace.Profile){
				stack.EngineSpark: func(p *trace.Profile) {
					p.Compute.CodeFootprintB = p.Compute.CodeFootprintB * 7 / 4
					p.Compute.CodeJumpFrac += 0.04
					p.Compute.CodeSkew = 0.2
				},
			},
		},
		{
			name: "Bayes", category: CategoryOffline,
			problemSize: "84 GB", dataType: "semi-structured text",
			paperBytes: 84 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac = 0.30
				p.FPFrac, p.SSEFrac = 0.03, 0.04 // log-probability math
				p.SeqFrac = 0.45
				p.DepFrac = 0.30
			}),
			shuffleIntensity: 0.22,
			deriveSkew:       textSkew(60000, 12000, 0.9),
		},
		{
			name: "Kmeans", category: CategoryOffline,
			problemSize: "44 GB", dataType: "unstructured text",
			paperBytes: 44 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.32, 0.06
				p.SSEFrac = 0.12 // distance computation
				p.FPFrac = 0.02
				p.SeqFrac = 0.60  // stream points
				p.DataSkew = 0.80 // centroids are scorching hot
				p.BranchEntropy = 0.06
				p.DepFrac = 0.40
			}),
			shuffleIntensity: 0.10,
			deriveSkew:       uniformSkew(0.78),
			tweak: map[stack.Engine]func(*trace.Profile){
				// H-Kmeans: highest PC2 — more stores, fetch stalls and
				// shared-TLB data hits (§V-B reading of Fig. 2).
				stack.EngineHadoop: func(p *trace.Profile) {
					p.Compute.StoreFrac += 0.04
					p.Compute.CodeFootprintB += 1 << 20
					p.Compute.DataFootprintB = p.Compute.DataFootprintB * 7 / 10
				},
				// S-Kmeans: PC4 outlier with ITLB churn (§V-B).
				stack.EngineSpark: func(p *trace.Profile) {
					p.Compute.CodeFootprintB *= 2
					p.Compute.CodeJumpFrac += 0.05
					p.Compute.CodeSkew = 0.15
				},
			},
		},
		{
			name: "PageRank", category: CategoryOffline,
			problemSize: "2^24 vertices", dataType: "unstructured graph",
			paperBytes: 32 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.36, 0.08
				p.SeqFrac = 0.15 // gather over edges is pointer chasing
				p.FPFrac = 0.02
				p.DepFrac = 0.45
				p.BranchEntropy = 0.20
			}),
			shuffleIntensity: 0.30,
			deriveSkew:       graphSkew(4000, 4),
		},

		// Interactive analytics (Hive / Shark, Table I bottom half).
		{
			name: "Projection", category: CategoryInteractive,
			problemSize: "420 million records", dataType: "structured table",
			paperBytes: 28 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.30, 0.11
				p.SeqFrac = 0.85
				p.BranchEntropy = 0.05
				p.DepFrac = 0.15
			}),
			shuffleIntensity: 0.12,
			deriveSkew:       uniformSkew(0.25),
		},
		{
			name: "Filter", category: CategoryInteractive,
			problemSize: "420 million records", dataType: "structured table",
			paperBytes: 28 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.31, 0.05
				p.BranchFrac = 0.22
				p.SeqFrac = 0.85
				p.BranchEntropy = 0.15 // predicate selectivity
				p.DepFrac = 0.18
			}),
			shuffleIntensity: 0.10,
			deriveSkew:       uniformSkew(0.25),
		},
		{
			name: "OrderBy", category: CategoryInteractive,
			problemSize: "420 million records", dataType: "structured table",
			paperBytes: 28 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.30, 0.15
				p.SeqFrac = 0.50
				p.BranchEntropy = 0.25
				p.DepFrac = 0.35
			}),
			shuffleIntensity: 0.38,
			deriveSkew:       uniformSkew(0.30),
		},
		{
			name: "CrossProduct", category: CategoryInteractive,
			problemSize: "100 million records", dataType: "structured table",
			paperBytes: 7 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.35, 0.10
				p.SeqFrac = 0.70  // inner table re-scanned
				p.DataSkew = 0.75 // inner table stays cache-hot
				p.BranchEntropy = 0.05
				p.DepFrac = 0.25
			}),
			shuffleIntensity: 0.25,
			deriveSkew:       uniformSkew(0.72),
		},
		{
			name: "Union", category: CategoryInteractive,
			problemSize: "420 million records", dataType: "structured table",
			paperBytes: 28 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.30, 0.13
				p.SeqFrac = 0.88
				p.BranchEntropy = 0.05
				p.DepFrac = 0.15
			}),
			shuffleIntensity: 0.12,
			deriveSkew:       uniformSkew(0.25),
		},
		{
			name: "Difference", category: CategoryInteractive,
			problemSize: "100 million records", dataType: "structured table",
			paperBytes: 7 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.32, 0.08
				p.SeqFrac = 0.35 // hash anti-join probes
				p.DepFrac = 0.35
				p.BranchEntropy = 0.18
			}),
			shuffleIntensity: 0.25,
			deriveSkew:       tableSkew(20000, 4000, 0.8),
		},
		{
			name: "Aggregation", category: CategoryInteractive,
			problemSize: "420 million records", dataType: "structured table",
			paperBytes: 28 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.30, 0.10
				p.SeqFrac = 0.55 // scan + hash-table updates
				p.DepFrac = 0.30
			}),
			shuffleIntensity: 0.22,
			deriveSkew:       tableSkew(20000, 2000, 1.0),
		},
		{
			name: "JoinQuery", category: CategoryInteractive,
			problemSize: "100 million records", dataType: "structured table",
			paperBytes: 7 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.34, 0.09
				p.SeqFrac = 0.45 // probe side random
				p.DepFrac = 0.40
				p.BranchEntropy = 0.15
			}),
			shuffleIntensity: 0.28,
			deriveSkew:       tableSkew(20000, 3000, 0.9),
		},
		{
			name: "AggQuery", category: CategoryInteractive,
			problemSize: "420 million records", dataType: "structured table",
			paperBytes: 28 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.31, 0.09
				p.SeqFrac = 0.60
				p.DepFrac = 0.28
			}),
			shuffleIntensity: 0.18,
			deriveSkew:       tableSkew(20000, 1000, 1.1),
		},
		{
			name: "SelectQuery", category: CategoryInteractive,
			problemSize: "420 million records", dataType: "structured table",
			paperBytes: 28 * gb,
			user: mk(func(p *trace.Params) {
				p.LoadFrac, p.StoreFrac = 0.31, 0.06
				p.BranchFrac = 0.21
				p.SeqFrac = 0.82
				p.BranchEntropy = 0.12
				p.DepFrac = 0.18
			}),
			shuffleIntensity: 0.10,
			deriveSkew:       uniformSkew(0.28),
		},
	}
}

// Config controls suite synthesis.
type Config struct {
	// Seed drives data generation and trace randomness.
	Seed uint64
	// Scale divides the paper's dataset bytes down to simulation
	// footprints (default 4096: 80 GB → 20 MB per node).
	Scale float64
}

// DefaultConfig returns the standard suite configuration.
func DefaultConfig() Config { return Config{Seed: 20140901, Scale: 4096} }

// engines are the two stacks every algorithm runs on, in suite order.
var engines = []stack.Engine{stack.EngineHadoop, stack.EngineSpark}

// Suite synthesizes all 32 workloads (16 algorithms × {Hadoop/Hive,
// Spark/Shark}) in the paper's naming scheme. Workloads are ordered
// H-<alg>, S-<alg> per algorithm.
func Suite(cfg Config) ([]Workload, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("workloads: non-positive scale %v", cfg.Scale)
	}
	var out []Workload
	for _, alg := range algorithms() {
		a, err := alg.derive(cfg)
		if err != nil {
			return nil, err
		}
		for _, eng := range engines {
			w, err := Synthesize(a, eng, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, w)
		}
	}
	return out, nil
}

// Builtin synthesizes the one built-in workload with the given paper-style
// name. Data traits are derived from a per-algorithm RNG, so the result is
// identical to the same entry of Suite(cfg) without synthesizing the other
// 31.
func Builtin(cfg Config, name string) (Workload, error) {
	if cfg.Scale <= 0 {
		return Workload{}, fmt.Errorf("workloads: non-positive scale %v", cfg.Scale)
	}
	for _, alg := range algorithms() {
		for _, eng := range engines {
			if StackFor(alg.category, eng).Prefix+alg.name != name {
				continue
			}
			a, err := alg.derive(cfg)
			if err != nil {
				return Workload{}, err
			}
			return Synthesize(a, eng, cfg)
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// ByName returns the workload with the given paper-style name from a
// suite.
func ByName(suite []Workload, name string) (Workload, error) {
	for _, w := range suite {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// CheckSelection validates a workload selection against the names a suite
// defines and returns the selected names, whitespace-trimmed, in the given
// order. Empty and duplicate names are rejected, and an unknown name
// errors with the full list of valid names. This is the shared validation
// for every front-end that accepts a workload selection; it works on names
// alone, so no workload needs synthesizing to check one.
func CheckSelection(valid, names []string) ([]string, error) {
	picked := make([]string, 0, len(names))
	for i, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" {
			return nil, fmt.Errorf("workloads: empty workload name at position %d", i)
		}
		if slices.Contains(picked, name) {
			return nil, fmt.Errorf("workloads: workload %q listed twice", name)
		}
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("workloads: unknown workload %q (valid names: %s)",
				name, strings.Join(valid, ", "))
		}
		picked = append(picked, name)
	}
	return picked, nil
}

// Select picks suite members by name, in the given order, after
// validating the selection with CheckSelection.
func Select(suite []Workload, names []string) ([]Workload, error) {
	picked, err := CheckSelection(Names(suite), names)
	if err != nil {
		return nil, err
	}
	out := make([]Workload, len(picked))
	for i, name := range picked {
		out[i], _ = ByName(suite, name) // CheckSelection found every name
	}
	return out, nil
}

// StackFor selects the concrete stack for a category+engine: interactive
// (query) workloads run on Hive/Shark, offline analytics directly on
// Hadoop/Spark (§III-A).
func StackFor(category string, eng stack.Engine) stack.Profile {
	if category == CategoryInteractive {
		if eng == stack.EngineHadoop {
			return stack.Hive()
		}
		return stack.Shark()
	}
	if eng == stack.EngineHadoop {
		return stack.Hadoop()
	}
	return stack.Spark()
}

// Algorithm is the stack-independent description of one suite entry with
// its data traits already derived: the input to Synthesize. Built-in
// Table I entries reach it through Suite and Builtin; custom workload
// definitions construct it directly, so both go through the identical
// blending path.
type Algorithm struct {
	Name        string
	Category    string
	ProblemSize string
	DataType    string
	// PaperBytes is the dataset size at paper scale; Config.Scale divides
	// it down to the simulation footprint.
	PaperBytes uint64
	// User is the user-code contribution to the instruction stream. Its
	// DataFootprintB is overwritten from PaperBytes; its DataSkew is
	// raised to at least Skew.
	User trace.Params
	// ShuffleIntensity in [0, 0.5]: fraction of execution in shuffle/IO
	// phases.
	ShuffleIntensity float64
	// Skew is the derived data-access concentration knob in [0, 1).
	Skew float64
	// Tweak applies optional per-engine adjustments after blending.
	Tweak map[stack.Engine]func(*trace.Profile)
}

// Synthesize builds the concrete workload for one algorithm on one engine:
// the stack is selected by category (§III-A), the user code is blended
// with the stack's base profile at its Dominance weight, the data
// footprint is scaled from paper size by Config.Scale and the stack's
// DataScale, and the shuffle phase is derived with the stack's shuffle
// character. This is the single synthesis path shared by the 32 built-ins
// and custom workload definitions.
func Synthesize(alg Algorithm, eng stack.Engine, cfg Config) (Workload, error) {
	if cfg.Scale <= 0 {
		return Workload{}, fmt.Errorf("workloads: non-positive scale %v", cfg.Scale)
	}
	st := StackFor(alg.Category, eng)
	if err := st.Validate(); err != nil {
		return Workload{}, err
	}

	user := alg.User
	user.DataSkew = math.Max(user.DataSkew, alg.Skew)
	footprint := float64(alg.PaperBytes) / cfg.Scale * st.DataScale
	if footprint < 1<<20 {
		footprint = 1 << 20
	}
	user.DataFootprintB = uint64(footprint)

	compute := trace.Blend(user, st.Base, st.Dominance)

	// Shuffle phase: derived from the compute phase with the stack's
	// shuffle character (materialization stores, kernel I/O, streaming).
	shuffle := compute
	shuffle.KernelFrac = st.ShuffleKernelFrac
	shuffle.SeqFrac = st.ShuffleSeqFrac
	shuffle.StoreFrac = math.Min(0.5, shuffle.StoreFrac+0.07)
	shuffle.LoadFrac = math.Min(1-shuffle.StoreFrac, shuffle.LoadFrac+0.02)
	shuffle.DepFrac *= 0.6

	prof := trace.Profile{
		Name:        st.Prefix + alg.Name,
		Compute:     compute,
		Shuffle:     shuffle,
		ShuffleFrac: alg.ShuffleIntensity,
		PhasePeriod: 8192,
	}
	if tw, ok := alg.Tweak[eng]; ok {
		tw(&prof)
	}
	if err := prof.Validate(); err != nil {
		return Workload{}, fmt.Errorf("workloads: %s: %w", prof.Name, err)
	}
	return Workload{
		Name:        prof.Name,
		Algorithm:   alg.Name,
		Stack:       st,
		Category:    alg.Category,
		ProblemSize: alg.ProblemSize,
		DataType:    alg.DataType,
		Profile:     prof,
	}, nil
}

// derive turns a Table I entry into its stack-independent Algorithm by
// deriving the data traits from generated data. The RNG is seeded per
// algorithm, so both stacks see identical data (§III-A: "Identical Data
// Sets") and one entry synthesized alone equals the same entry of Suite.
// The skew is a pure function of the algorithm and Config.Seed, so it is
// generated once per seed and read from skews after that.
func (alg algorithm) derive(cfg Config) (Algorithm, error) {
	skew, ok := skews.get(cfg.Seed, alg.name)
	if !ok {
		var err error
		if skew, err = alg.deriveSkew(rng.New(cfg.Seed ^ hashName(alg.name))); err != nil {
			return Algorithm{}, fmt.Errorf("workloads: %s: %w", alg.name, err)
		}
		skews.put(cfg.Seed, alg.name, skew)
	}
	return Algorithm{
		Name:             alg.name,
		Category:         alg.category,
		ProblemSize:      alg.problemSize,
		DataType:         alg.dataType,
		PaperBytes:       alg.paperBytes,
		User:             alg.user,
		ShuffleIntensity: alg.shuffleIntensity,
		Skew:             skew,
		Tweak:            alg.tweak,
	}, nil
}

// memoSeeds is how many suite seeds the skew memo holds. A client picks
// the seed, so the memo is bounded; a job, its retries and its variants
// share one seed, and a handful covers every seed a fleet runs at once.
const memoSeeds = 8

// skews memoizes derived skews for the memoSeeds most recently used suite
// seeds. Regenerating an algorithm's BDGS dataset costs milliseconds, and
// every Suite and Builtin call (a coordinator's plan, a worker's unit) would
// otherwise pay it again at the same seed. It lives in memory only, and
// holds nothing but successful derivations.
var skews = newSkewMemo(memoSeeds)

// skewMemo maps suite seed → algorithm name → derived skew for at most
// limit seeds, dropping the least recently used seed when a new one
// arrives. It is safe for concurrent use; two callers that miss the same
// key at once both derive it, and both get the same bits.
type skewMemo struct {
	mu    sync.Mutex
	limit int
	seeds []uint64 // held seeds, least recently used first
	skew  map[uint64]map[string]float64
}

func newSkewMemo(limit int) *skewMemo {
	return &skewMemo{limit: limit, skew: make(map[uint64]map[string]float64, limit)}
}

// touch moves seed to the most recently used end of m.seeds. Callers hold
// m.mu and have checked that seed is held.
func (m *skewMemo) touch(seed uint64) {
	i := slices.Index(m.seeds, seed)
	m.seeds = append(slices.Delete(m.seeds, i, i+1), seed)
}

func (m *skewMemo) get(seed uint64, alg string) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.skew[seed][alg]
	if ok {
		m.touch(seed)
	}
	return s, ok
}

func (m *skewMemo) put(seed uint64, alg string, skew float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bySeed, ok := m.skew[seed]
	if ok {
		m.touch(seed)
	} else {
		if len(m.seeds) == m.limit {
			delete(m.skew, m.seeds[0])
			m.seeds = slices.Delete(m.seeds, 0, 1)
		}
		bySeed = make(map[string]float64)
		m.skew[seed] = bySeed
		m.seeds = append(m.seeds, seed)
	}
	bySeed[alg] = skew
}

// BuiltinNames returns the 32 built-in workload names (H-/S- per Table I
// algorithm) in canonical suite order, without synthesizing any profiles —
// the cheap collision oracle for custom workload definitions.
func BuiltinNames() []string {
	algs := algorithms()
	out := make([]string, 0, 2*len(algs))
	for _, alg := range algs {
		for _, eng := range engines {
			out = append(out, StackFor(alg.category, eng).Prefix+alg.name)
		}
	}
	return out
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Names returns the workload names of a suite in order.
func Names(suite []Workload) []string {
	out := make([]string, len(suite))
	for i, w := range suite {
		out[i] = w.Name
	}
	return out
}
