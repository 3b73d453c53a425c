package workloads

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/rng"
)

// withMemo swaps the package's skew memo for m until the test ends. Tests
// that call it must not run in parallel with other tests of this package.
func withMemo(t *testing.T, m *skewMemo) {
	t.Helper()
	old := skews
	skews = m
	t.Cleanup(func() { skews = old })
}

// freshSuite derives the whole suite at cfg through an empty memo of its
// own, so no earlier derivation can stand in for it.
func freshSuite(t *testing.T, cfg Config) []Workload {
	t.Helper()
	old := skews
	skews = newSkewMemo(memoSeeds)
	defer func() { skews = old }()
	s, err := Suite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (m *skewMemo) holds(seed uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.skew[seed]
	return ok
}

// checkSuite asserts that Suite and every Builtin at cfg equal want bit for
// bit.
func checkSuite(t *testing.T, cfg Config, want []Workload, when string) {
	t.Helper()
	got, err := Suite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d %s: Suite differs from a fresh derivation", cfg.Seed, when)
	}
	for _, w := range want {
		b, err := Builtin(cfg, w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b, w) {
			t.Errorf("seed %d %s: Builtin(%s) differs from a fresh derivation", cfg.Seed, when, w.Name)
		}
	}
}

// A memoized derivation must equal a fresh one bit for bit: on the cold
// call that fills the memo, on warm calls that read it, and after the seed
// was evicted and derived again.
func TestMemoMatchesFreshDerivation(t *testing.T) {
	withMemo(t, newSkewMemo(memoSeeds))
	cfgs := []Config{DefaultConfig(), {Seed: 11, Scale: 1 << 16}, {Seed: 1, Scale: 1}}
	want := make([][]Workload, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = freshSuite(t, cfg)
		if len(want[i]) != 32 {
			t.Fatalf("fresh suite has %d workloads", len(want[i]))
		}
		checkSuite(t, cfg, want[i], "cold")
		if !skews.holds(cfg.Seed) {
			t.Fatalf("seed %d not memoized after Suite", cfg.Seed)
		}
		checkSuite(t, cfg, want[i], "warm")
	}
	for s := uint64(1000); s < 1000+memoSeeds; s++ {
		if _, err := Builtin(Config{Seed: s, Scale: 1}, "H-Sort"); err != nil {
			t.Fatal(err)
		}
	}
	for i, cfg := range cfgs {
		if skews.holds(cfg.Seed) {
			t.Fatalf("seed %d still memoized after %d newer seeds", cfg.Seed, memoSeeds)
		}
		checkSuite(t, cfg, want[i], "re-derived after eviction")
	}
}

// Flooding the memo with seeds never holds more than memoSeeds of them,
// and it keeps the most recently used: a hit refreshes a seed.
func TestMemoBounded(t *testing.T) {
	withMemo(t, newSkewMemo(memoSeeds))
	const hot = 7
	for s := uint64(100); s < 400; s++ {
		for _, seed := range []uint64{s, hot} {
			if _, err := Builtin(Config{Seed: seed, Scale: 1}, "S-Sort"); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(skews.seeds); n > memoSeeds || len(skews.skew) != n {
			t.Fatalf("memo holds %d seeds in order and %d in its map, bound %d", n, len(skews.skew), memoSeeds)
		}
	}
	want := []uint64{393, 394, 395, 396, 397, 398, 399, hot}
	if !slices.Equal(skews.seeds, want) {
		t.Errorf("memo holds seeds %v, want %v", skews.seeds, want)
	}
}

// A failed derivation is returned, never memoized: the next call derives
// again.
func TestMemoSkipsErrors(t *testing.T) {
	withMemo(t, newSkewMemo(memoSeeds))
	calls := 0
	alg := algorithm{name: "Broken", deriveSkew: func(*rng.RNG) (float64, error) {
		calls++
		return 0, errors.New("generator failed")
	}}
	for i := 0; i < 2; i++ {
		if _, err := alg.derive(DefaultConfig()); err == nil {
			t.Fatal("derive swallowed the generator's error")
		}
	}
	if calls != 2 || skews.holds(DefaultConfig().Seed) {
		t.Errorf("failed derivation memoized: %d generator calls, seed held %v",
			calls, skews.holds(DefaultConfig().Seed))
	}
}

// Concurrent callers alternating across more seeds than the memo holds
// (so hits, misses and evictions interleave) all get a fresh derivation's
// bits. Run it under -race.
func TestMemoConcurrent(t *testing.T) {
	withMemo(t, newSkewMemo(memoSeeds))
	names := []string{"H-PageRank", "S-JoinQuery", "H-Sort"}
	seeds := make([]uint64, memoSeeds+2)
	want := make(map[string]Workload)
	for i := range seeds {
		seeds[i] = uint64(500 + i)
		all := freshSuite(t, Config{Seed: seeds[i], Scale: 1})
		for _, name := range names {
			w, err := ByName(all, name)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(seeds[i], name)] = w
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(seeds); i++ {
				seed, name := seeds[(g+i)%len(seeds)], names[(g+i)%len(names)]
				w, err := Builtin(Config{Seed: seed, Scale: 1}, name)
				if err == nil && !reflect.DeepEqual(w, want[fmt.Sprint(seed, name)]) {
					err = fmt.Errorf("seed %d %s differs from a fresh derivation", seed, name)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkBuiltinCold synthesizes one data-heavy built-in at a seed the
// memo has never seen, so every iteration regenerates its dataset: the
// uncached synthesis cost.
func BenchmarkBuiltinCold(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(1<<40 + i)
		if _, err := Builtin(cfg, "H-WordCount"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteWarm synthesizes all 32 built-ins at a seed the memo
// already holds: what every Suite call after a seed's first costs.
func BenchmarkSuiteWarm(b *testing.B) {
	if _, err := Suite(DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Suite(DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
