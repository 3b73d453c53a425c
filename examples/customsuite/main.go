// Customsuite walks the benchmark-designer workflow on the open
// scenario registry (internal/bigdata/custom, DESIGN.md §8): load
// declarative workload definitions from scenarios.json, mix them with
// built-ins and an embedded preset inside one JobSpec, characterize the
// suite, and read the subsetting verdict — does the new scenario exhibit
// behaviour the existing suite lacks, or is it redundant?
//
// Because the definitions live in the spec, the same JSON runs unchanged
// against a bdservd/bdcoord daemon (`report -workload-file … -server …`
// or a {"custom_workloads": …} job submission), with the same
// content-addressed job ID everywhere.
package main

import (
	_ "embed"
	"fmt"
	"log"
	"strings"

	"repro/internal/bigdata/custom"
	"repro/internal/core"
	"repro/internal/service"
)

// The definitions ship inside the binary, so the example runs from any
// directory; the same file works verbatim as `report -workload-file
// examples/customsuite/scenarios.json`.
//
//go:embed scenarios.json
var scenariosJSON string

func main() {
	defs, err := custom.Load(strings.NewReader(scenariosJSON))
	if err != nil {
		log.Fatal(err)
	}
	presets, err := custom.PresetsByName([]string{"MemThrash"})
	if err != nil {
		log.Fatal(err)
	}
	defs = append(defs, presets...)

	// One spec carries everything: a built-in anchor set, the file
	// definitions' H-/S- variants, and the preset. The job ID is a hash
	// of the normalized spec — definitions included — so this exact job
	// dedupes against any daemon that ever ran it.
	spec := service.DefaultSpec()
	spec.Workloads = []string{
		"H-Grep", "S-Grep", "H-WordCount", "S-WordCount", "H-Sort", "S-Sort",
		"H-LogAnalyzer", "S-LogAnalyzer",
		"H-GraphTriangles", "S-GraphTriangles",
		"H-MemThrash", "S-MemThrash",
	}
	spec.CustomWorkloads = defs
	spec.Cluster.SlaveNodes = 2
	spec.Cluster.InstructionsPerCore = 20000
	spec.Analysis.KMax = 8
	id, err := spec.ID()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("content-addressed job ID (definitions included): %s\n\n", id)

	suite, err := spec.ResolveSuite()
	if err != nil {
		log.Fatal(err)
	}
	ds, err := core.CharacterizeSuite(suite, spec.Cluster)
	if err != nil {
		log.Fatal(err)
	}
	an, err := core.Analyze(ds, spec.Analysis)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("suite of %d workloads → %d clusters (BIC)\n\n", len(suite), an.KBest.K)
	for c := 0; c < an.KBest.K; c++ {
		fmt.Printf("cluster %d:", c+1)
		for _, i := range an.KBest.Members(c) {
			fmt.Printf(" %s", ds.Labels[i])
		}
		fmt.Println()
	}

	fmt.Println("\nverdict for the custom scenarios:")
	for _, name := range []string{
		"H-LogAnalyzer", "S-LogAnalyzer",
		"H-GraphTriangles", "S-GraphTriangles",
		"H-MemThrash", "S-MemThrash",
	} {
		for i, l := range ds.Labels {
			if l != name {
				continue
			}
			members := an.KBest.Members(an.KBest.Assign[i])
			if len(members) == 1 {
				fmt.Printf("  %s exhibits unique behaviour → keep it in the suite\n", name)
			} else {
				fmt.Printf("  %s clusters with %d other workload(s) → an existing\n", name, len(members)-1)
				fmt.Println("    representative covers it for microarchitectural studies")
			}
		}
	}
}
