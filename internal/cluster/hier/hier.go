// Package hier implements agglomerative hierarchical clustering with the
// linkage strategies used for workload similarity analysis (paper §III-D,
// §V-A: Euclidean distance, single linkage, dendrogram reading).
package hier

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/num/mat"
)

// Linkage selects how the distance between two clusters is computed from
// pairwise point distances.
type Linkage int

const (
	// Single linkage: distance between the closest pair (the paper's
	// choice, following Phansalkar et al.).
	Single Linkage = iota
	// Complete linkage: distance between the farthest pair.
	Complete
	// Average linkage (UPGMA): mean pairwise distance.
	Average
	// Ward linkage: merge cost in within-cluster variance.
	Ward
)

// String returns the linkage name.
func (l Linkage) String() string {
	switch l {
	case Single:
		return "single"
	case Complete:
		return "complete"
	case Average:
		return "average"
	case Ward:
		return "ward"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Merge records one agglomeration step. Clusters are identified by ID:
// IDs 0..n-1 are the original points (leaves); merge i creates cluster
// n+i from children A and B at the given linkage Distance.
type Merge struct {
	A, B     int
	Distance float64
	Size     int // number of leaves in the merged cluster
}

// Dendrogram is the full merge history of n points: exactly n-1 merges.
type Dendrogram struct {
	N      int
	Merges []Merge
	Labels []string // optional, len N when set
}

// condensed is a flat upper-triangular pairwise distance store over n
// items: entry (i,j), i<j, lives at row-major triangular offset. It holds
// half the memory of a full matrix and is cache-friendlier to scan.
type condensed struct {
	n int
	d []float64
}

func newCondensed(n int) *condensed {
	return &condensed{n: n, d: make([]float64, n*(n-1)/2)}
}

func (c *condensed) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Row i starts after rows 0..i-1, which hold (n-1)+(n-2)+...+(n-i)
	// entries.
	return i*(c.n-1) - i*(i-1)/2 + (j - i - 1)
}

// offsets returns, per row i, the base that indexes entry (i, j), i < j,
// as d[off[i]+j]: row i starts at idx(i, i+1) and runs to column n-1.
func (c *condensed) offsets() []int {
	off := make([]int, c.n)
	for i := range off {
		off[i] = i*(c.n-1) - i*(i-1)/2 - i - 1
	}
	return off
}

func (c *condensed) at(i, j int) float64     { return c.d[c.idx(i, j)] }
func (c *condensed) set(i, j int, v float64) { c.d[c.idx(i, j)] = v }

// Cluster performs agglomerative clustering of the rows of points using
// Euclidean distance and the given linkage, via the nearest-neighbor-chain
// algorithm over a condensed triangular distance store: O(n²) time and
// n(n-1)/2 distance entries, versus the O(n³)/full-matrix naive scan. All
// four linkages are Lance–Williams reducible, so the chain's local merges
// produce the same dendrogram as the global greedy algorithm whenever
// pairwise minimum distances are distinct; merges are re-sorted into
// nondecreasing distance order and relabeled afterwards so cluster IDs
// match the greedy numbering. Results are fully deterministic (nearest-
// neighbor ties prefer the chain predecessor, then the smallest index),
// but when distinct merges share exactly equal distances the chain may
// legally emit them in a different order than the greedy scan's
// smallest-index-pair rule — both are valid dendrograms of the same
// heights.
func Cluster(points *mat.Dense, linkage Linkage) (*Dendrogram, error) {
	n, _ := points.Dims()
	if n < 2 {
		return nil, fmt.Errorf("hier: need at least 2 points, got %d", n)
	}
	switch linkage {
	case Single, Complete, Average, Ward:
	default:
		return nil, fmt.Errorf("hier: unknown linkage %v", linkage)
	}

	// The scans below index the store through row offsets, not through
	// idx's multiply-and-swap per entry.
	dist := newCondensed(n)
	dd, off := dist.d, dist.offsets()
	for i := 0; i < n; i++ {
		distances(dd[off[i]+i+1:off[i]+n], points, i)
	}
	if linkage == Ward {
		// Ward works on squared distances internally; we convert back
		// when reporting so all linkages share units.
		for i, d := range dd {
			dd[i] = d * d
		}
	}

	// A cluster is identified by its smallest leaf index; merging a<b
	// stores the union at a and drops b from live, the ascending list of
	// representatives still in play. size is indexed by representative.
	size := make([]int, n)
	live := make([]int, n)
	for i := range size {
		size[i] = 1
		live[i] = i
	}

	raw := make([]rawMerge, 0, n-1)
	chain := make([]int, 0, n)

	for len(live) > 1 {
		if len(chain) == 0 {
			chain = append(chain, live[0])
		}
		a := chain[len(chain)-1]
		prev := -1
		if len(chain) >= 2 {
			prev = chain[len(chain)-2]
		}
		// Nearest live neighbor of a; ties prefer the chain predecessor
		// (required for termination), then the smallest index.
		b, best := -1, math.Inf(1)
		for _, k := range live {
			i := off[a] + k
			if k < a {
				i = off[k] + a
			} else if k == a {
				continue
			}
			if d := dd[i]; d < best {
				best = d
				b = k
			}
		}
		if prev >= 0 && dist.at(a, prev) == best {
			b = prev
		}
		if b != prev {
			chain = append(chain, b)
			continue
		}

		// a and b are reciprocal nearest neighbors: merge them.
		x, y := a, b
		if x > y {
			x, y = y, x
		}
		raw = append(raw, rawMerge{a: x, b: y, d: best})
		sx, sy := size[x], size[y]
		for _, k := range live {
			if k == x || k == y {
				continue
			}
			ixk, iyk := off[x]+k, off[y]+k
			if k < x {
				ixk = off[k] + x
			}
			if k < y {
				iyk = off[k] + y
			}
			dxk, dyk := dd[ixk], dd[iyk]
			var d float64
			switch linkage {
			case Single:
				d = math.Min(dxk, dyk)
			case Complete:
				d = math.Max(dxk, dyk)
			case Average:
				d = (float64(float64(sx)*dxk) + float64(float64(sy)*dyk)) / float64(sx+sy)
			case Ward:
				sk := float64(size[k])
				tot := float64(sx+sy) + sk
				d = (float64((float64(sx)+sk)*dxk) + float64((float64(sy)+sk)*dyk) - float64(sk*best)) / tot
			}
			dd[ixk] = d
		}
		size[x] = sx + sy
		yi, _ := slices.BinarySearch(live, y)
		live = slices.Delete(live, yi, yi+1)
		chain = chain[:len(chain)-2]
	}

	return chainDendrogram(n, raw, linkage), nil
}

// distances fills out[j-i-1] with the Euclidean distance from row i of
// points to each later row j. Four rows share one pass over row i, each
// with its own accumulator summed in coordinate order exactly as
// mat.Distance sums, so every distance has the bits mat.Distance gives
// while the four sums' additions overlap.
func distances(out []float64, points *mat.Dense, i int) {
	ri := points.RowView(i)
	j := 0
	for ; j+4 <= len(out); j += 4 {
		r0 := points.RowView(i + 1 + j)[:len(ri)]
		r1 := points.RowView(i + 2 + j)[:len(ri)]
		r2 := points.RowView(i + 3 + j)[:len(ri)]
		r3 := points.RowView(i + 4 + j)[:len(ri)]
		var s0, s1, s2, s3 float64
		for k, x := range ri {
			d0, d1, d2, d3 := x-r0[k], x-r1[k], x-r2[k], x-r3[k]
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
		}
		out[j], out[j+1], out[j+2], out[j+3] = math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)
	}
	for ; j < len(out); j++ {
		out[j] = mat.Distance(ri, points.RowView(i+1+j))
	}
}

// rawMerge is one merge as the chain emits it.
type rawMerge struct {
	a, b int // cluster representatives, a < b
	d    float64
}

// chainDendrogram turns the chain's merges into the greedy-order history.
// The chain emits merges out of distance order (it follows local
// reciprocal pairs, not the global minimum). Reducibility guarantees
// every child merge has distance ≤ its parent's, so a stable sort by
// distance yields a valid greedy-order history; relabel cluster IDs to
// match (merge i creates cluster n+i, child A has the smaller minimum
// leaf).
func chainDendrogram(n int, raw []rawMerge, linkage Linkage) *Dendrogram {
	sort.SliceStable(raw, func(i, j int) bool { return raw[i].d < raw[j].d })

	dend := &Dendrogram{N: n, Merges: make([]Merge, 0, n-1)}
	id := make([]int, n) // current dendrogram ID of the cluster rooted at each representative
	csize := make([]int, n)
	for i := range id {
		id[i] = i
		csize[i] = 1
	}
	for i, rm := range raw {
		reported := rm.d
		if linkage == Ward {
			reported = math.Sqrt(reported)
		}
		sz := csize[rm.a] + csize[rm.b]
		dend.Merges = append(dend.Merges, Merge{
			A:        id[rm.a],
			B:        id[rm.b],
			Distance: reported,
			Size:     sz,
		})
		id[rm.a] = n + i
		csize[rm.a] = sz
	}
	return dend
}

// SetLabels attaches leaf labels for rendering. len(labels) must equal N.
func (d *Dendrogram) SetLabels(labels []string) error {
	if len(labels) != d.N {
		return fmt.Errorf("hier: %d labels for %d leaves", len(labels), d.N)
	}
	d.Labels = append([]string(nil), labels...)
	return nil
}

// leaves returns the leaf IDs under cluster id, in discovery order.
func (d *Dendrogram) leaves(id int) []int {
	if id < d.N {
		return []int{id}
	}
	m := d.Merges[id-d.N]
	return append(d.leaves(m.A), d.leaves(m.B)...)
}

// Leaves returns the leaf indices under the cluster with the given ID
// (0..N-1 are leaves; N+i is the cluster created by merge i).
func (d *Dendrogram) Leaves(id int) []int {
	if id < 0 || id >= d.N+len(d.Merges) {
		panic(fmt.Sprintf("hier: cluster id %d out of range", id))
	}
	return d.leaves(id)
}

// Cut cuts the dendrogram at the given distance: merges with
// Distance ≤ cut are applied, yielding flat cluster assignments.
// Returns one cluster index per leaf, numbered 0..k-1 in order of first
// appearance, plus k.
func (d *Dendrogram) Cut(cut float64) ([]int, int) {
	parent := make([]int, d.N+len(d.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, m := range d.Merges {
		if m.Distance <= cut {
			id := d.N + i
			parent[find(m.A)] = id
			parent[find(m.B)] = id
		}
	}
	assign := make([]int, d.N)
	index := map[int]int{}
	for i := 0; i < d.N; i++ {
		root := find(i)
		k, ok := index[root]
		if !ok {
			k = len(index)
			index[root] = k
		}
		assign[i] = k
	}
	return assign, len(index)
}

// CutK cuts the dendrogram to produce exactly k flat clusters (by undoing
// the k-1 most expensive merges). k must be in [1, N].
func (d *Dendrogram) CutK(k int) []int {
	if k < 1 || k > d.N {
		panic(fmt.Sprintf("hier: CutK k=%d out of range [1,%d]", k, d.N))
	}
	// Apply the first N-k merges in merge order (they are produced in
	// nondecreasing distance order for monotone linkages; for safety we
	// sort by distance).
	order := make([]int, len(d.Merges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return d.Merges[order[a]].Distance < d.Merges[order[b]].Distance
	})
	parent := make([]int, d.N+len(d.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, mi := range order[:d.N-k] {
		m := d.Merges[mi]
		id := d.N + mi
		parent[find(m.A)] = id
		parent[find(m.B)] = id
	}
	assign := make([]int, d.N)
	index := map[int]int{}
	for i := 0; i < d.N; i++ {
		root := find(i)
		c, ok := index[root]
		if !ok {
			c = len(index)
			index[root] = c
		}
		assign[i] = c
	}
	return assign
}

// CopheneticDistance returns the linkage distance at which leaves a and b
// first join the same cluster.
func (d *Dendrogram) CopheneticDistance(a, b int) float64 {
	if a == b {
		return 0
	}
	// Walk merges in order; track cluster membership with union-find.
	parent := make([]int, d.N+len(d.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, m := range d.Merges {
		id := d.N + i
		parent[find(m.A)] = id
		parent[find(m.B)] = id
		if find(a) == find(b) {
			return m.Distance
		}
	}
	return math.Inf(1)
}

// FirstIterationPairs returns the merges that combine two leaves directly
// — the "first clustering iteration" pairs the paper analyzes in
// Observations 1–2 (e.g. "80% of clusters consist of workloads that are
// based on the same software stack").
func (d *Dendrogram) FirstIterationPairs() []Merge {
	var out []Merge
	for _, m := range d.Merges {
		if m.A < d.N && m.B < d.N {
			out = append(out, m)
		}
	}
	return out
}

// CopheneticCorrelation measures how faithfully the dendrogram preserves
// the original pairwise distances: the Pearson correlation between the
// Euclidean distances of the points and their cophenetic distances.
// Values near 1 mean the hierarchy is a good summary of the geometry.
func (d *Dendrogram) CopheneticCorrelation(points *mat.Dense) float64 {
	n, _ := points.Dims()
	if n != d.N || n < 3 {
		return 0
	}
	orig := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		ri := points.RowView(i)
		for j := i + 1; j < n; j++ {
			orig = append(orig, mat.Distance(ri, points.RowView(j)))
		}
	}
	// The condensed store lists pairs i<j in the order orig does.
	return pearson(orig, d.cophenetic().d)
}

// cophenetic returns every leaf pair's cophenetic distance in one pass
// over the merges, O(N²) in all: merge m is the height of exactly the
// pairs with one leaf under each of its children. Each cluster's leaves
// are kept as a linked list, so joining two costs O(1). A pair no merge
// joins keeps +Inf, as CopheneticDistance reports it.
func (d *Dendrogram) cophenetic() *condensed {
	c := newCondensed(d.N)
	for i := range c.d {
		c.d[i] = math.Inf(1)
	}
	ids := d.N + len(d.Merges)
	head, tail := make([]int, ids), make([]int, ids)
	next := make([]int, d.N)
	for id := range head {
		head[id], tail[id] = -1, -1
	}
	for i := range next {
		head[i], tail[i], next[i] = i, i, -1
	}
	for k, m := range d.Merges {
		for a := head[m.A]; a >= 0; a = next[a] {
			for b := head[m.B]; b >= 0; b = next[b] {
				c.set(a, b, m.Distance)
			}
		}
		next[tail[m.A]] = head[m.B]
		head[d.N+k], tail[d.N+k] = head[m.A], tail[m.B]
	}
	return c
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += float64(da * db)
		saa += float64(da * da)
		sbb += float64(db * db)
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// MaxPairwiseCophenetic returns the largest cophenetic distance among the
// given leaves — the "maximal linkage distance" column of Table V. Each
// merge that joins two clusters both holding a given leaf is some pair's
// cophenetic distance, and each pair's is such a merge, so one pass over
// the merges finds the maximum. A pair no merge joins makes it +Inf.
func (d *Dendrogram) MaxPairwiseCophenetic(leaves []int) float64 {
	holds := make([]bool, d.N+len(d.Merges))
	groups := 0 // clusters holding a given leaf
	for _, l := range leaves {
		if !holds[l] {
			holds[l] = true
			groups++
		}
	}
	max := 0.0
	for i, m := range d.Merges {
		if holds[m.A] && holds[m.B] {
			groups--
			if m.Distance > max {
				max = m.Distance
			}
		}
		holds[d.N+i] = holds[m.A] || holds[m.B]
	}
	if groups > 1 {
		return math.Inf(1)
	}
	return max
}
