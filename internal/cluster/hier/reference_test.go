package hier

import (
	"fmt"
	"math"

	"repro/internal/num/mat"
)

// clusterReference is the original O(n³) agglomerative implementation: a
// full n×n distance matrix with a global minimum scan per merge step. It
// is retained as the oracle the nearest-neighbor-chain Cluster is tested
// against (the two must produce identical dendrograms whenever pairwise
// distances are distinct) and is not used on any production path.
func clusterReference(points *mat.Dense, linkage Linkage) (*Dendrogram, error) {
	n, _ := points.Dims()
	if n < 2 {
		return nil, fmt.Errorf("hier: need at least 2 points, got %d", n)
	}

	// Pairwise distance matrix between active clusters, indexed by
	// cluster slot. Slot i initially holds leaf i. Lance–Williams updates
	// keep it consistent after merges.
	type slot struct {
		id   int // cluster ID (leaf or internal)
		size int
		live bool
	}
	slots := make([]slot, n)
	for i := range slots {
		slots[i] = slot{id: i, size: 1, live: true}
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := mat.Distance(points.Row(i), points.Row(j))
			if linkage == Ward {
				// Ward works on squared distances internally; we convert
				// back when reporting so all linkages share units.
				d = d * d
			}
			dist[i][j] = d
			dist[j][i] = d
		}
	}

	dend := &Dendrogram{N: n, Merges: make([]Merge, 0, n-1)}
	nextID := n

	for step := 0; step < n-1; step++ {
		// Find the closest live pair.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !slots[i].live {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !slots[j].live {
					continue
				}
				if dist[i][j] < best {
					best = dist[i][j]
					bi, bj = i, j
				}
			}
		}
		if bi < 0 {
			return nil, fmt.Errorf("hier: internal error: no live pair at step %d", step)
		}

		si, sj := slots[bi].size, slots[bj].size
		reported := best
		if linkage == Ward {
			reported = math.Sqrt(best)
		}
		dend.Merges = append(dend.Merges, Merge{
			A:        slots[bi].id,
			B:        slots[bj].id,
			Distance: reported,
			Size:     si + sj,
		})

		// Lance–Williams update of distances from the merged cluster
		// (stored in slot bi) to every other live slot.
		for k := 0; k < n; k++ {
			if !slots[k].live || k == bi || k == bj {
				continue
			}
			dik, djk := dist[bi][k], dist[bj][k]
			var d float64
			switch linkage {
			case Single:
				d = math.Min(dik, djk)
			case Complete:
				d = math.Max(dik, djk)
			case Average:
				d = (float64(si)*dik + float64(sj)*djk) / float64(si+sj)
			case Ward:
				sk := float64(slots[k].size)
				tot := float64(si+sj) + sk
				d = ((float64(si)+sk)*dik + (float64(sj)+sk)*djk - sk*best) / tot
			default:
				return nil, fmt.Errorf("hier: unknown linkage %v", linkage)
			}
			dist[bi][k] = d
			dist[k][bi] = d
		}
		slots[bi].id = nextID
		slots[bi].size = si + sj
		slots[bj].live = false
		nextID++
	}
	return dend, nil
}

// clusterActiveReference is the nearest-neighbor chain as it was before
// Cluster kept an ascending list of live representatives and indexed the
// condensed store through row offsets: every scan sweeps all n slots
// behind an active flag and reads through condensed.idx. It runs the same
// Lance–Williams arithmetic in the same order, so Cluster must agree with
// it bit for bit, ties included; it is not used on any production path.
func clusterActiveReference(points *mat.Dense, linkage Linkage) *Dendrogram {
	n, _ := points.Dims()
	dist := newCondensed(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := mat.Distance(points.Row(i), points.Row(j))
			if linkage == Ward {
				d = d * d
			}
			dist.set(i, j, d)
		}
	}

	size := make([]int, n)
	active := make([]bool, n)
	for i := range size {
		size[i] = 1
		active[i] = true
	}
	raw := make([]rawMerge, 0, n-1)
	chain := make([]int, 0, n)
	remaining := n

	for remaining > 1 {
		if len(chain) == 0 {
			for i := 0; i < n; i++ {
				if active[i] {
					chain = append(chain, i)
					break
				}
			}
		}
		a := chain[len(chain)-1]
		prev := -1
		if len(chain) >= 2 {
			prev = chain[len(chain)-2]
		}
		b, best := -1, math.Inf(1)
		for k := 0; k < n; k++ {
			if !active[k] || k == a {
				continue
			}
			if d := dist.at(a, k); d < best {
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

		x, y := a, b
		if x > y {
			x, y = y, x
		}
		raw = append(raw, rawMerge{a: x, b: y, d: best})
		sx, sy := size[x], size[y]
		for k := 0; k < n; k++ {
			if !active[k] || k == x || k == y {
				continue
			}
			dxk, dyk := dist.at(x, k), dist.at(y, k)
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
			dist.set(x, k, d)
		}
		size[x] = sx + sy
		active[y] = false
		remaining--
		chain = chain[:len(chain)-2]
	}
	return chainDendrogram(n, raw, linkage)
}
