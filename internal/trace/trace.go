// Package trace synthesizes dynamic instruction streams from statistical
// workload profiles. A profile describes what the paper's workloads look
// like to the hardware — instruction mix, code and data footprints and
// their skew, kernel-mode bursts, sharing, branch predictability — and the
// generator emits a deterministic stream with those properties for the
// machine simulator to execute.
//
// This is the substitution for running real Hadoop/Spark jobs (see
// DESIGN.md §2): the workload models control the same knobs that real
// software stacks control on real hardware.
package trace

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim/machine"
)

// Params is one execution phase's statistical description.
type Params struct {
	// Instruction mix fractions; the remainder after loads, stores,
	// branches, FP and SSE is integer ALU work.
	LoadFrac, StoreFrac, BranchFrac, FPFrac, SSEFrac float64

	// KernelFrac is the fraction of instructions executed in ring 0
	// (syscall/IO bursts).
	KernelFrac float64

	// UopsPerInstr is the mean µop expansion in [1, 4].
	UopsPerInstr float64
	// ComplexFrac is the fraction of instructions with long encodings or
	// microcode (stresses the length decoder and decoder).
	ComplexFrac float64
	// DepFrac is the probability an instruction consumes the most recent
	// load's value (creates backend stalls on outstanding misses).
	DepFrac float64

	// BranchEntropy in [0,1]: 0 = fully predictable branch behaviour,
	// 1 = coin flips.
	BranchEntropy float64

	// Code working set.
	CodeFootprintB uint64
	// CodeJumpFrac is the probability an instruction fetch jumps to a
	// new location instead of advancing sequentially.
	CodeJumpFrac float64
	// CodeSkew in [0,1): concentration of jump targets (hot functions).
	CodeSkew float64

	// DataFootprintB is the node-level live data working set; each core
	// works on its own 1/cores partition (tasks process partitions).
	DataFootprintB uint64
	// DataSkew in [0,1): probability an access lands in the hot region
	// (hash-table heads, centroids, dictionary) rather than anywhere in
	// the partition.
	DataSkew float64
	// SeqFrac is the fraction of data accesses that stream sequentially.
	SeqFrac float64

	// Sharing across cores.
	SharedFrac       float64 // fraction of data accesses to the shared region
	SharedFootprintB uint64
	SharedWriteFrac  float64 // fraction of shared accesses that are stores
}

// Validate checks that the parameters are well-formed.
func (p Params) Validate() error {
	mix := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac + p.SSEFrac
	if mix < 0 || mix > 1 {
		return fmt.Errorf("trace: instruction mix fractions sum to %v, want [0,1]", mix)
	}
	for name, v := range map[string]float64{
		"LoadFrac": p.LoadFrac, "StoreFrac": p.StoreFrac, "BranchFrac": p.BranchFrac,
		"FPFrac": p.FPFrac, "SSEFrac": p.SSEFrac, "KernelFrac": p.KernelFrac,
		"ComplexFrac": p.ComplexFrac, "DepFrac": p.DepFrac, "BranchEntropy": p.BranchEntropy,
		"CodeJumpFrac": p.CodeJumpFrac, "SeqFrac": p.SeqFrac, "SharedFrac": p.SharedFrac,
		"SharedWriteFrac": p.SharedWriteFrac,
	} {
		if v < 0 || v > 1 {
			return fmt.Errorf("trace: %s = %v out of [0,1]", name, v)
		}
	}
	for name, v := range map[string]float64{"CodeSkew": p.CodeSkew, "DataSkew": p.DataSkew} {
		if v < 0 || v >= 1 {
			return fmt.Errorf("trace: %s = %v out of [0,1)", name, v)
		}
	}
	if p.UopsPerInstr < 1 || p.UopsPerInstr > 4 {
		return fmt.Errorf("trace: UopsPerInstr = %v out of [1,4]", p.UopsPerInstr)
	}
	if p.CodeFootprintB == 0 || p.DataFootprintB == 0 {
		return fmt.Errorf("trace: zero code or data footprint")
	}
	if p.SharedFrac > 0 && p.SharedFootprintB == 0 {
		return fmt.Errorf("trace: SharedFrac > 0 with zero shared footprint")
	}
	return nil
}

// Blend linearly interpolates two parameter sets: w=0 returns a, w=1
// returns b. Footprints blend geometrically (they span orders of
// magnitude).
func Blend(a, b Params, w float64) Params {
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	lin := func(x, y float64) float64 { return float64(x*(1-w)) + float64(y*w) }
	geo := func(x, y uint64) uint64 {
		if x == 0 || y == 0 {
			return uint64(lin(float64(x), float64(y)))
		}
		return uint64(math.Exp(lin(math.Log(float64(x)), math.Log(float64(y)))))
	}
	return Params{
		LoadFrac:         lin(a.LoadFrac, b.LoadFrac),
		StoreFrac:        lin(a.StoreFrac, b.StoreFrac),
		BranchFrac:       lin(a.BranchFrac, b.BranchFrac),
		FPFrac:           lin(a.FPFrac, b.FPFrac),
		SSEFrac:          lin(a.SSEFrac, b.SSEFrac),
		KernelFrac:       lin(a.KernelFrac, b.KernelFrac),
		UopsPerInstr:     lin(a.UopsPerInstr, b.UopsPerInstr),
		ComplexFrac:      lin(a.ComplexFrac, b.ComplexFrac),
		DepFrac:          lin(a.DepFrac, b.DepFrac),
		BranchEntropy:    lin(a.BranchEntropy, b.BranchEntropy),
		CodeFootprintB:   geo(a.CodeFootprintB, b.CodeFootprintB),
		CodeJumpFrac:     lin(a.CodeJumpFrac, b.CodeJumpFrac),
		CodeSkew:         lin(a.CodeSkew, b.CodeSkew),
		DataFootprintB:   geo(a.DataFootprintB, b.DataFootprintB),
		DataSkew:         lin(a.DataSkew, b.DataSkew),
		SeqFrac:          lin(a.SeqFrac, b.SeqFrac),
		SharedFrac:       lin(a.SharedFrac, b.SharedFrac),
		SharedFootprintB: geo(a.SharedFootprintB, b.SharedFootprintB),
		SharedWriteFrac:  lin(a.SharedWriteFrac, b.SharedWriteFrac),
	}
}

// Profile is a full workload description: a compute phase, a shuffle/IO
// phase, and their interleaving (map/reduce or RDD transform/shuffle
// structure).
type Profile struct {
	Name        string
	Compute     Params
	Shuffle     Params
	ShuffleFrac float64 // fraction of instructions spent in shuffle phases
	PhasePeriod int     // instructions per compute+shuffle cycle (default 4096)
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if err := p.Compute.Validate(); err != nil {
		return fmt.Errorf("profile %q compute: %w", p.Name, err)
	}
	if p.ShuffleFrac > 0 {
		if err := p.Shuffle.Validate(); err != nil {
			return fmt.Errorf("profile %q shuffle: %w", p.Name, err)
		}
	}
	if p.ShuffleFrac < 0 || p.ShuffleFrac > 1 {
		return fmt.Errorf("profile %q: ShuffleFrac %v out of [0,1]", p.Name, p.ShuffleFrac)
	}
	return nil
}

// Address-space layout for the synthetic streams. Private regions are
// spaced far apart per core; the shared region and kernel regions are
// common to all cores of a node.
const (
	userCodeBase   = 0x0000_0000_0040_0000
	kernelCodeBase = 0x0000_7000_0000_0000
	kernelDataBase = 0x0000_7800_0000_0000
	privateBase    = 0x0000_0001_0000_0000
	privateStride  = 0x0000_0000_4000_0000 // 1 GiB between cores
	sharedBase     = 0x0000_6000_0000_0000

	// The OS kernel's code and data footprints are properties of the
	// (identical) system software, not of the workload. Kernel data is
	// mostly per-CPU (slabs, stacks, per-CPU counters) with a smaller
	// truly-shared slice (run queues, inode/dentry caches).
	kernelCodeFootprint    = 1 << 20
	kernelDataPerCore      = 128 << 10
	kernelDataShared       = 1 << 20
	kernelSharedAccessFrac = 0.15
	kernelSharedWriteFrac  = 0.08
	kernelCodeHotRegion    = 16 << 10
	kernelCodeHotFrac      = 0.5
)

// Hot-region bounds for the two-tier ("hot/cold") access mixture. Hot
// data (hash-table heads, dictionaries, centroids) sits between the L1
// DTLB's reach (256 KB) and the STLB's (2 MB), which is what real
// profiled working sets look like; hot code (inner loops) approaches the
// L1I capacity.
const (
	hotDataMin = 64 << 10
	hotDataMax = 2 << 20
	hotCodeMin = 8 << 10
	hotCodeMax = 24 << 10
)

// Generator emits the instruction stream for one core. It implements
// machine.Source.
type Generator struct {
	prof    Profile
	rng     *rng.RNG
	core    int
	cores   int // total cores sharing the node-level footprint
	emitted uint64

	// Phase state.
	inShuffle  bool
	phaseLeft  int
	period     int
	shuffleLen int
	computeLen int

	// Code stream state.
	pc       uint64
	kernelPC uint64
	inKernel bool
	kLeft    int // remaining kernel-burst instructions

	// Sequential data stream state.
	seqPtr uint64
}

// NewGenerator builds the stream for core `core` of a node with
// `totalCores` cores, with a deterministic seed. The profile must
// validate. The node-level data footprint is partitioned across cores.
func NewGenerator(prof Profile, seed uint64, core, totalCores int) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if totalCores < 1 || core < 0 || core >= totalCores {
		return nil, fmt.Errorf("trace: core %d of %d invalid", core, totalCores)
	}
	period := prof.PhasePeriod
	if period <= 0 {
		period = 4096
	}
	shuffleLen := int(float64(period) * prof.ShuffleFrac)
	g := &Generator{
		prof:       prof,
		rng:        rng.New(seed ^ (uint64(core)+1)*0xA24BAED4963EE407),
		core:       core,
		cores:      totalCores,
		period:     period,
		shuffleLen: shuffleLen,
		computeLen: period - shuffleLen,
		pc:         userCodeBase,
		kernelPC:   kernelCodeBase,
		seqPtr:     privateRegion(core),
	}
	g.phaseLeft = g.computeLen
	if g.computeLen == 0 {
		g.inShuffle = true
		g.phaseLeft = g.shuffleLen
	}
	return g, nil
}

func privateRegion(core int) uint64 {
	return privateBase + uint64(core)*privateStride
}

// params returns the active phase's parameters.
func (g *Generator) params() *Params {
	if g.inShuffle {
		return &g.prof.Shuffle
	}
	return &g.prof.Compute
}

// hotMixOffset samples an offset in [0, size): with probability hotFrac
// the access lands uniformly in the hot region [0, hotSize), otherwise
// uniformly anywhere in [0, size). This two-tier mixture matches profiled
// working sets (a small scorching structure plus a large cold sweep) and
// gives the cache/TLB hierarchy realistic reuse tiers.
func (g *Generator) hotMixOffset(size, hotSize uint64, hotFrac float64) uint64 {
	if hotSize > size {
		hotSize = size
	}
	region := size
	if hotSize > 0 && g.rng.Bool(hotFrac) {
		region = hotSize
	}
	// float64 rounds the product: on ppc64le and riscv64 the conversion to
	// uint64 subtracts 2⁶³ from it, and that subtract would fuse with it.
	off := uint64(float64(g.rng.Float64() * float64(region)))
	if off >= size {
		off = size - 1
	}
	return off
}

func clamp(v, lo, hi uint64) uint64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// perCoreData returns this core's partition size of the node footprint.
func (g *Generator) perCoreData(p *Params) uint64 {
	f := p.DataFootprintB / uint64(g.cores)
	if f < 256<<10 {
		f = 256 << 10
	}
	return f
}

// nextPC produces the next instruction address.
func (g *Generator) nextPC(p *Params) uint64 {
	if g.inKernel {
		// Kernel code: large OS text with hot syscall paths.
		if g.rng.Bool(0.15) {
			g.kernelPC = kernelCodeBase + g.hotMixOffset(kernelCodeFootprint, kernelCodeHotRegion, kernelCodeHotFrac)&^3
		} else {
			g.kernelPC += 4
			if g.kernelPC >= kernelCodeBase+kernelCodeFootprint {
				g.kernelPC = kernelCodeBase
			}
		}
		return g.kernelPC
	}
	if g.rng.Bool(p.CodeJumpFrac) {
		hot := clamp(p.CodeFootprintB/16, hotCodeMin, hotCodeMax)
		g.pc = userCodeBase + g.hotMixOffset(p.CodeFootprintB, hot, p.CodeSkew)&^3
	} else {
		g.pc += 4
		if g.pc >= userCodeBase+p.CodeFootprintB {
			g.pc = userCodeBase
		}
	}
	return g.pc
}

// dataAddr produces a data address and whether the access must be a store
// (shared-region write traffic).
func (g *Generator) dataAddr(p *Params) (addr uint64, forceStore bool) {
	if g.inKernel {
		// Mostly per-CPU kernel structures, with a shared slice that
		// carries coherence traffic (run queues, dcache).
		if g.rng.Bool(kernelSharedAccessFrac) {
			off := uint64(float64(g.rng.Float64() * kernelDataShared))
			return kernelDataBase + off&^7, g.rng.Bool(kernelSharedWriteFrac)
		}
		base := kernelDataBase + kernelDataShared + uint64(g.core)*kernelDataPerCore
		off := uint64(float64(g.rng.Float64() * kernelDataPerCore))
		return base + off&^7, false
	}
	if p.SharedFrac > 0 && g.rng.Bool(p.SharedFrac) {
		// Shared structures (block manager, broadcast variables) are
		// hotter than private data: contention concentrates on them.
		hot := clamp(p.SharedFootprintB/8, hotDataMin, hotDataMax)
		hotFrac := p.DataSkew
		if hotFrac < 0.5 {
			hotFrac = 0.5
		}
		off := g.hotMixOffset(p.SharedFootprintB, hot, hotFrac)
		return sharedBase + off&^7, g.rng.Bool(p.SharedWriteFrac)
	}
	base := privateRegion(g.core)
	foot := g.perCoreData(p)
	if g.rng.Bool(p.SeqFrac) {
		g.seqPtr += 8
		if g.seqPtr >= base+foot {
			g.seqPtr = base
		}
		return g.seqPtr, false
	}
	hot := clamp(foot/4, hotDataMin, hotDataMax)
	return base + g.hotMixOffset(foot, hot, p.DataSkew)&^7, false
}

// branchTaken decides a branch outcome: a per-PC bias with entropy mixed
// in, so predictability is controlled by BranchEntropy.
func (g *Generator) branchTaken(p *Params, pc uint64) bool {
	if g.rng.Bool(p.BranchEntropy) {
		return g.rng.Bool(0.5)
	}
	// Deterministic per-PC bias: hash the PC.
	h := pc * 0x9E3779B97F4A7C15
	return h>>63 == 1
}

// Next implements machine.Source. The stream is unbounded; the machine's
// instruction budget terminates the run.
func (g *Generator) Next(out *machine.Instr) bool {
	p := g.params()

	// Phase bookkeeping.
	g.phaseLeft--
	if g.phaseLeft <= 0 {
		if g.inShuffle {
			g.inShuffle = false
			g.phaseLeft = g.computeLen
		} else if g.shuffleLen > 0 {
			g.inShuffle = true
			g.phaseLeft = g.shuffleLen
		} else {
			g.phaseLeft = g.computeLen
		}
	}

	// Kernel burst bookkeeping: enter ring 0 in bursts whose density
	// matches KernelFrac (mean burst 32 instructions).
	if g.inKernel {
		g.kLeft--
		if g.kLeft <= 0 {
			g.inKernel = false
		}
	} else if p.KernelFrac > 0 && g.rng.Bool(p.KernelFrac/32) {
		g.inKernel = true
		g.kLeft = 16 + g.rng.Intn(32)
	}

	pc := g.nextPC(p)

	// Pick the kind.
	u := g.rng.Float64()
	var kind machine.Kind
	switch {
	case u < p.LoadFrac:
		kind = machine.KindLoad
	case u < p.LoadFrac+p.StoreFrac:
		kind = machine.KindStore
	case u < p.LoadFrac+p.StoreFrac+p.BranchFrac:
		kind = machine.KindBranch
	case u < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac:
		kind = machine.KindFP
	case u < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac+p.SSEFrac:
		kind = machine.KindSSE
	default:
		kind = machine.KindInt
	}

	*out = machine.Instr{
		PC:     pc,
		Kind:   kind,
		Kernel: g.inKernel,
	}

	// µop expansion: mean UopsPerInstr via a two-point distribution.
	uops := 1
	mean := p.UopsPerInstr
	if g.inKernel && mean < 1.8 {
		mean = 1.8 // ring-0 paths are microcode-heavy
	}
	for mean > 1 && uops < 4 {
		if g.rng.Bool(math.Min(mean-1, 1)) {
			uops++
		}
		mean--
	}
	out.Uops = uint8(uops)

	complexFrac := p.ComplexFrac
	if g.inKernel {
		complexFrac = math.Min(1, complexFrac+0.15)
	}
	out.Complex = g.rng.Bool(complexFrac)

	switch kind {
	case machine.KindLoad:
		addr, forceStore := g.dataAddr(p)
		out.Addr = addr
		if forceStore {
			// Shared-region write traffic: the access mutates shared
			// state (drives RFO and HITM coherence activity).
			out.Kind = machine.KindStore
		}
	case machine.KindStore:
		addr, _ := g.dataAddr(p)
		out.Addr = addr
	case machine.KindBranch:
		out.Taken = g.branchTaken(p, pc)
	default:
		out.Dependent = g.rng.Bool(p.DepFrac)
	}

	g.emitted++
	return true
}

// Emitted returns how many instructions have been generated.
func (g *Generator) Emitted() uint64 { return g.emitted }

// Sources builds one generator per core for a node. seeds differ per core
// deterministically.
func Sources(prof Profile, seed uint64, cores int) ([]machine.Source, error) {
	out := make([]machine.Source, cores)
	for c := 0; c < cores; c++ {
		g, err := NewGenerator(prof, seed, c, cores)
		if err != nil {
			return nil, err
		}
		out[c] = g
	}
	return out, nil
}
