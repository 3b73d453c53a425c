package cluster

import (
	"repro/internal/rng"
	"repro/internal/trace"
)

// jitterProfile applies node- and run-level execution variation to a
// workload profile: JIT compilation state, GC timing, OS scheduling and
// daemon activity perturb every behavioural parameter of a real JVM-based
// big-data job by a few percent between runs and between nodes. Without
// this, simulated measurements are unrealistically exact and the BIC
// "goodness of fit" analysis sees spuriously tight clusters.
//
// Each parameter is scaled by (1 + ε) with ε drawn from N(0, sigma),
// clamped back to its valid domain.
func jitterProfile(p trace.Profile, sigma float64, r *rng.RNG) trace.Profile {
	if sigma <= 0 {
		return p
	}
	p.Compute = jitterParams(p.Compute, sigma, r)
	p.Shuffle = jitterParams(p.Shuffle, sigma, r)
	return p
}

func jitterParams(p trace.Params, sigma float64, r *rng.RNG) trace.Params {
	scale := func(v float64) float64 {
		return v * (1 + float64(sigma*r.NormFloat64()))
	}
	frac := func(v float64) float64 {
		v = scale(v)
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		return v
	}
	bytes := func(v uint64) uint64 {
		nv := scale(float64(v))
		if nv < 4096 {
			nv = 4096
		}
		return uint64(nv)
	}

	// Keep the instruction mix a valid simplex: jitter each component,
	// then rescale if the sum exceeds 1.
	p.LoadFrac = frac(p.LoadFrac)
	p.StoreFrac = frac(p.StoreFrac)
	p.BranchFrac = frac(p.BranchFrac)
	p.FPFrac = frac(p.FPFrac)
	p.SSEFrac = frac(p.SSEFrac)
	if sum := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac + p.SSEFrac; sum > 1 {
		inv := 1 / sum
		p.LoadFrac *= inv
		p.StoreFrac *= inv
		p.BranchFrac *= inv
		p.FPFrac *= inv
		p.SSEFrac *= inv
	}

	p.KernelFrac = frac(p.KernelFrac)
	p.ComplexFrac = frac(p.ComplexFrac)
	p.DepFrac = frac(p.DepFrac)
	p.BranchEntropy = frac(p.BranchEntropy)
	p.CodeJumpFrac = frac(p.CodeJumpFrac)
	p.SeqFrac = frac(p.SeqFrac)
	p.SharedFrac = frac(p.SharedFrac)
	p.SharedWriteFrac = frac(p.SharedWriteFrac)

	p.UopsPerInstr = scale(p.UopsPerInstr)
	if p.UopsPerInstr < 1 {
		p.UopsPerInstr = 1
	}
	if p.UopsPerInstr > 4 {
		p.UopsPerInstr = 4
	}

	clampSkew := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 0.95 {
			return 0.95
		}
		return v
	}
	p.CodeSkew = clampSkew(scale(p.CodeSkew))
	p.DataSkew = clampSkew(scale(p.DataSkew))

	p.CodeFootprintB = bytes(p.CodeFootprintB)
	p.DataFootprintB = bytes(p.DataFootprintB)
	p.SharedFootprintB = bytes(p.SharedFootprintB)
	return p
}
