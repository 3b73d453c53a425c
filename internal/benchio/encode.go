// Package benchio is the canonical wire encoding of the pipeline's
// results: datasets, observation matrices and analyses projected onto
// fixed-layout JSON, so equal results marshal to identical bytes and
// their content hashes agree across the daemons and the benchmark.
package benchio

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// DatasetJSON is the wire form of a core.Dataset: the labeled
// workload×metric matrix without the non-serializable measurement and
// suite back-references.
type DatasetJSON struct {
	Labels  []string    `json:"labels"`
	Metrics []string    `json:"metrics"`
	Rows    [][]float64 `json:"rows"`
}

// EncodeDataset projects a dataset onto its wire form.
func EncodeDataset(ds *core.Dataset) DatasetJSON {
	return DatasetJSON{Labels: ds.Labels, Metrics: ds.Metrics, Rows: ds.Rows}
}

// Dataset converts the wire form back into a core.Dataset (validated).
func (d DatasetJSON) Dataset() (*core.Dataset, error) {
	ds := &core.Dataset{Labels: d.Labels, Metrics: d.Metrics, Rows: d.Rows}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// ObservationsJSON is the wire form of a core.ObservationMatrix: the raw
// per-cell metric vectors of a (possibly partial) characterization grid.
// It is the result body of a characterize-only ("observations" mode) job
// — what a shard worker returns to its coordinator. Field order is fixed,
// so identical matrices encode to identical bytes.
type ObservationsJSON struct {
	Labels     []string `json:"labels"`
	Metrics    []string `json:"metrics"`
	NodeOffset int      `json:"node_offset"`
	// Cells is indexed [workload][run][node] → metric vector.
	Cells [][][][]float64 `json:"cells"`
}

// EncodeObservations projects an observation matrix onto its wire form.
func EncodeObservations(om *core.ObservationMatrix) ObservationsJSON {
	return ObservationsJSON{
		Labels:     om.Labels,
		Metrics:    om.Metrics,
		NodeOffset: om.NodeOffset,
		Cells:      om.Cells,
	}
}

// Observations converts the wire form back (validated).
func (o ObservationsJSON) Observations() (*core.ObservationMatrix, error) {
	om := &core.ObservationMatrix{
		Labels:     o.Labels,
		Metrics:    o.Metrics,
		Cells:      o.Cells,
		NodeOffset: o.NodeOffset,
	}
	if err := om.Validate(); err != nil {
		return nil, err
	}
	return om, nil
}

// RepresentativeJSON is the wire form of one selected workload.
type RepresentativeJSON struct {
	Cluster     int    `json:"cluster"`
	Workload    string `json:"workload"`
	Index       int    `json:"index"`
	ClusterSize int    `json:"cluster_size"`
}

// AnalysisJSON is the wire form of a core.Analysis: everything a service
// client needs from the §V–§VI result, in a stable, deterministic layout.
// Field order (and therefore the marshaled byte stream) is fixed, so
// identical analyses encode to identical bytes — the property the
// content-addressed result cache relies on.
type AnalysisJSON struct {
	Dataset DatasetJSON `json:"dataset"`

	NumPCs   int     `json:"num_pcs"`
	Variance float64 `json:"variance_retained"`

	BestK        int     `json:"best_k"`
	BIC          float64 `json:"bic"`
	Inertia      float64 `json:"inertia"`
	Assign       []int   `json:"assign"`
	ClusterSizes []int   `json:"cluster_sizes"`

	NearestReps        []RepresentativeJSON `json:"nearest_reps"`
	FarthestReps       []RepresentativeJSON `json:"farthest_reps"`
	NearestMaxLinkage  float64              `json:"nearest_max_linkage"`
	FarthestMaxLinkage float64              `json:"farthest_max_linkage"`

	// Subset is the farthest-from-centroid representative set — the
	// paper's released subset policy.
	Subset []string `json:"subset"`
}

// EncodeAnalysis projects an analysis onto its wire form.
func EncodeAnalysis(an *core.Analysis) *AnalysisJSON {
	reps := func(in []core.Representative) []RepresentativeJSON {
		out := make([]RepresentativeJSON, len(in))
		for i, r := range in {
			out[i] = RepresentativeJSON{
				Cluster: r.Cluster, Workload: r.Workload,
				Index: r.Index, ClusterSize: r.ClusterSize,
			}
		}
		return out
	}
	return &AnalysisJSON{
		Dataset:            EncodeDataset(an.Dataset),
		NumPCs:             an.NumPCs,
		Variance:           an.Variance,
		BestK:              an.KBest.K,
		BIC:                an.KBest.BIC,
		Inertia:            an.KBest.Inertia,
		Assign:             an.KBest.Assign,
		ClusterSizes:       an.KBest.Sizes,
		NearestReps:        reps(an.NearestReps),
		FarthestReps:       reps(an.FarthestReps),
		NearestMaxLinkage:  an.NearestMaxLinkage,
		FarthestMaxLinkage: an.FarthestMaxLinkage,
		Subset:             an.SubsetNames(),
	}
}

// MarshalCanonical renders v as indented JSON with a trailing newline:
// the bytes of json.MarshalIndent(v, "", "  ") followed by '\n'.
// encoding/json emits struct fields in declaration order and formats
// floats deterministically, so for the fixed-layout types in this package
// equal values always produce identical bytes. *AnalysisJSON,
// ObservationsJSON and DatasetJSON — every result body — go through
// canonicalWriter, which writes those bytes in one pass (encoding/json is
// its specification, FuzzCanonicalVsEncodingJSON its check); any other
// value goes through encoding/json itself. A NaN or ±Inf is an error.
func MarshalCanonical(v any) ([]byte, error) {
	switch x := v.(type) {
	case *AnalysisJSON:
		if x != nil {
			w := canonicalWriter{b: make([]byte, 0, analysisLen(x))}
			w.analysis(x)
			return w.canonical()
		}
	case ObservationsJSON:
		w := canonicalWriter{b: make([]byte, 0, observationsLen(&x))}
		w.observations(&x)
		return w.canonical()
	case DatasetJSON:
		w := canonicalWriter{b: make([]byte, 0, datasetLen(0, &x))}
		w.dataset(0, &x)
		return w.canonical()
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, marshalError(err)
	}
	return append(data, '\n'), nil
}

func marshalError(err error) error { return fmt.Errorf("benchio: marshal: %w", err) }
