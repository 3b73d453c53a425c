package hier

import (
	"math"
	"testing"

	"repro/internal/num/mat"
	"repro/internal/rng"
)

// withDuplicates returns the rows of m followed by copies of every third
// row, so some pairs sit at distance zero and merge heights tie.
func withDuplicates(m *mat.Dense) *mat.Dense {
	n, _ := m.Dims()
	rows := make([][]float64, 0, n+n/3)
	for i := 0; i < n; i++ {
		rows = append(rows, m.Row(i))
	}
	for i := 0; i < n; i += 3 {
		rows = append(rows, m.Row(i))
	}
	return mat.FromRows(rows)
}

// TestCopheneticMatchesPerPair checks the one-pass cophenetic heights,
// MaxPairwiseCophenetic and CopheneticCorrelation against per-pair
// CopheneticDistance replays, bit for bit, under every linkage.
func TestCopheneticMatchesPerPair(t *testing.T) {
	lattice := make([][]float64, 0, 50)
	for i := 0; i < 50; i++ {
		lattice = append(lattice, []float64{float64(i % 4), float64(i / 4 % 3)})
	}
	inputs := map[string]*mat.Dense{
		"wide+dups":    withDuplicates(wideBlobs(60)),
		"lattice+dups": mat.FromRows(lattice),
	}
	r := rng.New(3)
	for name, pts := range inputs {
		n, _ := pts.Dims()
		for _, linkage := range []Linkage{Single, Complete, Average, Ward} {
			d, err := Cluster(pts, linkage)
			if err != nil {
				t.Fatal(err)
			}
			coph := d.cophenetic()
			orig := make([]float64, 0, n*(n-1)/2)
			perPair := make([]float64, 0, n*(n-1)/2)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					want := d.CopheneticDistance(i, j)
					if got := coph.at(i, j); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%v: cophenetic(%d,%d) = %v, per pair %v", name, linkage, i, j, got, want)
					}
					orig = append(orig, mat.Distance(pts.RowView(i), pts.RowView(j)))
					perPair = append(perPair, want)
				}
			}
			got, want := d.CopheneticCorrelation(pts), pearson(orig, perPair)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s/%v: CopheneticCorrelation = %v, per pair %v", name, linkage, got, want)
			}
			for trial := 0; trial < 40; trial++ {
				// Subsets of up to 12 leaves, repeats allowed.
				leaves := make([]int, r.Intn(13))
				for i := range leaves {
					leaves[i] = r.Intn(n)
				}
				want := 0.0
				for i := range leaves {
					for j := i + 1; j < len(leaves); j++ {
						want = max(want, d.CopheneticDistance(leaves[i], leaves[j]))
					}
				}
				if got := d.MaxPairwiseCophenetic(leaves); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s/%v: MaxPairwiseCophenetic(%v) = %v, per pair %v", name, linkage, leaves, got, want)
				}
			}
		}
	}
}

// TestMaxPairwiseCopheneticUnjoined checks that leaves no merge joins
// report +Inf, as CopheneticDistance does for such a pair.
func TestMaxPairwiseCopheneticUnjoined(t *testing.T) {
	d := &Dendrogram{N: 3, Merges: []Merge{{A: 0, B: 1, Distance: 2, Size: 2}}}
	if got := d.MaxPairwiseCophenetic([]int{0, 1}); got != 2 {
		t.Errorf("joined pair: %v, want 2", got)
	}
	if got := d.MaxPairwiseCophenetic([]int{0, 2}); !math.IsInf(got, 1) {
		t.Errorf("unjoined pair: %v, want +Inf (CopheneticDistance gives %v)", got, d.CopheneticDistance(0, 2))
	}
}

// TestCopheneticCorrelationAllocs checks that the correlation no longer
// replays the merges per pair: at 512 rows that made 130 818 allocations.
func TestCopheneticCorrelationAllocs(t *testing.T) {
	pts := wideBlobs(512)
	d, err := Cluster(pts, Average)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(2, func() { d.CopheneticCorrelation(pts) }); allocs >= 16 {
		t.Errorf("CopheneticCorrelation(512 rows) made %.0f allocations, want < 16", allocs)
	}
}
