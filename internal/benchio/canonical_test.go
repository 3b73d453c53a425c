package benchio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specCanonical is MarshalCanonical's specification: encoding/json's
// indented bytes plus a newline, and its error under the same prefix.
func specCanonical(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, marshalError(err)
	}
	return append(data, '\n'), nil
}

// checkCanonical fails t unless MarshalCanonical(v) returns exactly the
// specification's bytes, or exactly its error, and the bytes fit the
// buffer the writer sized up front.
func checkCanonical(t *testing.T, name string, v any) {
	t.Helper()
	got, gotErr := MarshalCanonical(v)
	want, wantErr := specCanonical(v)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, encoding/json %v", name, gotErr, wantErr)
	}
	var bound int
	switch x := v.(type) {
	case *AnalysisJSON:
		if x != nil {
			bound = analysisLen(x)
		}
	case ObservationsJSON:
		bound = observationsLen(&x)
	case DatasetJSON:
		bound = datasetLen(0, &x)
	}
	if bound > 0 && len(got) > bound {
		t.Fatalf("%s: %d bytes outgrew the up-front size %d", name, len(got), bound)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: bytes differ from encoding/json at offset %d:\n got …%q\nwant …%q",
			name, i, got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}
}

// boundaryFloats sit on encoding/json's format switches (1e-6 and 1e21),
// the exponent clean-up (e-07 → e-7), the subnormals and the signed zero,
// and include the values it refuses.
var boundaryFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789, 2.5e-3,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.2345678901234567e-6,
	1e21, math.Nextafter(1e21, 0), -1e21, 1.2345678901234567e20,
	5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, 1e-100, 1.5e300,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// boundaryStrings carry what encoding/json escapes: HTML's <>&, quotes,
// backslashes, control bytes, U+2028/U+2029 and invalid UTF-8.
var boundaryStrings = []string{
	"", "H-Sort#12", "<>&", "\"quoted\\", "\x00\x01\x1f\b\f\n\r\t\x7f",
	"a\u2028b\u2029c", "\xff\xfe", "caf\xc3", "ok \xe2\x82\xac \xed\xa0\x80 end", "日本語",
}

// wideAnalysis is a synthetic analysis of the wide input's shape: rows
// rows of 45 metric values spanning six orders of magnitude, with labels,
// assignments and representatives as the pipeline fills them.
func wideAnalysis(rows int) *AnalysisJSON {
	const cols, k = 45, 12
	r := rand.New(rand.NewSource(1024))
	a := &AnalysisJSON{NumPCs: 7, Variance: 0.9118, BestK: k, BIC: -12345.678, Inertia: 4321.5,
		NearestMaxLinkage: 3.25, FarthestMaxLinkage: 7.125}
	for j := 0; j < cols; j++ {
		a.Dataset.Metrics = append(a.Dataset.Metrics, fmt.Sprintf("metric_%02d", j))
	}
	scale := make([]float64, cols)
	for j := range scale {
		scale[j] = math.Pow(10, 6*r.Float64()-3)
	}
	a.ClusterSizes = make([]int, k)
	for i := 0; i < rows; i++ {
		a.Dataset.Labels = append(a.Dataset.Labels, fmt.Sprintf("H-Workload%d#%d", i%32, i/32))
		row := make([]float64, cols)
		for j := range row {
			row[j] = scale[j] * (1 + 0.08*r.NormFloat64())
		}
		a.Dataset.Rows = append(a.Dataset.Rows, row)
		a.Assign = append(a.Assign, i%k)
		a.ClusterSizes[i%k]++
	}
	for c := 0; c < k; c++ {
		rep := RepresentativeJSON{Cluster: c, Workload: a.Dataset.Labels[c%rows], Index: c % rows, ClusterSize: a.ClusterSizes[c]}
		a.NearestReps = append(a.NearestReps, rep)
		a.FarthestReps = append(a.FarthestReps, rep)
		a.Subset = append(a.Subset, rep.Workload)
	}
	return a
}

// TestCanonicalMatchesEncodingJSON checks the writer against
// encoding/json on every wire type: a wide analysis, the boundary floats
// and strings one at a time, nil against empty slices, and NaN and ±Inf
// in each float field.
func TestCanonicalMatchesEncodingJSON(t *testing.T) {
	checkCanonical(t, "wide analysis", wideAnalysis(256))
	checkCanonical(t, "sample dataset", EncodeDataset(sample()))
	checkCanonical(t, "zero analysis", &AnalysisJSON{})
	checkCanonical(t, "nil analysis", (*AnalysisJSON)(nil))
	checkCanonical(t, "zero observations", ObservationsJSON{})
	checkCanonical(t, "zero dataset", DatasetJSON{})
	checkCanonical(t, "empty slices", &AnalysisJSON{
		Dataset: DatasetJSON{Labels: []string{}, Metrics: []string{}, Rows: [][]float64{{}, nil}},
		Assign:  []int{}, ClusterSizes: []int{}, NearestReps: []RepresentativeJSON{}, Subset: []string{},
	})
	checkCanonical(t, "empty cells", ObservationsJSON{Cells: [][][][]float64{nil, {}, {nil, {}, {nil, {}}}}})
	for _, f := range boundaryFloats {
		name := fmt.Sprint("float ", f)
		checkCanonical(t, name, DatasetJSON{Rows: [][]float64{{f}}})
		checkCanonical(t, name, ObservationsJSON{Cells: [][][][]float64{{{{1, f}}}}})
		for field := 0; field < 5; field++ {
			a := wideAnalysis(2)
			*[]*float64{&a.Variance, &a.BIC, &a.Inertia, &a.NearestMaxLinkage, &a.FarthestMaxLinkage}[field] = f
			checkCanonical(t, fmt.Sprintf("%s in analysis field %d", name, field), a)
		}
	}
	for _, s := range boundaryStrings {
		checkCanonical(t, fmt.Sprintf("string %q", s), DatasetJSON{Labels: []string{s}, Metrics: []string{s + s}})
		a := wideAnalysis(2)
		a.NearestReps[0].Workload, a.Subset[1] = s, s
		checkCanonical(t, fmt.Sprintf("string %q in analysis", s), a)
	}
	// The first unsupported value in field order names the error.
	a := wideAnalysis(3)
	a.Dataset.Rows[2][1], a.Variance = math.Inf(-1), math.NaN()
	checkCanonical(t, "two non-finite values", a)
}

// TestMarshalCanonicalAllocs pins the encode of a 1024-row analysis to a
// few allocations: one buffer, sized up front so it never grows.
func TestMarshalCanonicalAllocs(t *testing.T) {
	a := wideAnalysis(1024)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := MarshalCanonical(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("MarshalCanonical(1024-row analysis) made %.0f allocations, want ≤ 4", allocs)
	}
}

// FuzzCanonicalVsEncodingJSON differentially fuzzes the canonical writer
// against its specification, json.MarshalIndent(v, "", "  ") + "\n":
// the bytes must be equal, or the errors. Raw supplies the floats (eight
// bytes each, any bit pattern) and ints, s the strings, and shape's bits
// pick nil or empty slices and the row widths.
func FuzzCanonicalVsEncodingJSON(f *testing.F) {
	for i, x := range boundaryFloats {
		raw := binary.LittleEndian.AppendUint64(nil, math.Float64bits(x))
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(boundaryFloats[(i+7)%len(boundaryFloats)]))
		f.Add(raw, boundaryStrings[i%len(boundaryStrings)], uint16(i*2654435761))
	}
	f.Add([]byte{}, "", uint16(0))
	f.Add([]byte{}, "", uint16(0xffff))
	f.Fuzz(func(t *testing.T, raw []byte, s string, shape uint16) {
		var floats []float64
		var ints []int
		for i := 0; i+8 <= len(raw); i += 8 {
			u := binary.LittleEndian.Uint64(raw[i:])
			floats = append(floats, math.Float64frombits(u))
			ints = append(ints, int(int64(u)))
		}
		bit := func(i uint) bool { return shape>>i&1 == 1 }
		strs := []string{s, s[:len(s)/2], s[len(s)/2:]}
		orNil := func(i uint, xs []string) []string {
			if bit(i) {
				return nil
			}
			return xs[:len(xs)*int(shape>>(i+8)&1)]
		}
		width := 1 + int(shape>>12)%4
		var rows [][]float64
		if !bit(3) {
			rows = [][]float64{}
		}
		for i := 0; i < len(floats); i += width {
			rows = append(rows, floats[i:min(i+width, len(floats))])
		}
		if bit(4) {
			rows = append(rows, nil, []float64{})
		}
		ds := DatasetJSON{Labels: orNil(0, strs), Metrics: orNil(1, strs[1:]), Rows: rows}
		checkCanonical(t, "dataset", ds)

		cells := [][][][]float64{{rows}, {}, nil, {nil, {}}}
		if len(rows) > 1 {
			cells = append(cells, [][][]float64{rows[:1], rows[1:]})
		}
		checkCanonical(t, "observations", ObservationsJSON{
			Labels: orNil(2, strs), Metrics: ds.Metrics, NodeOffset: len(raw) - 7, Cells: cells,
		})

		a := &AnalysisJSON{Dataset: ds, NumPCs: int(shape), BestK: len(s), Subset: orNil(5, strs)}
		for i, p := range []*float64{&a.Variance, &a.BIC, &a.Inertia, &a.NearestMaxLinkage, &a.FarthestMaxLinkage} {
			if i < len(floats) {
				*p = floats[len(floats)-1-i]
			}
		}
		if !bit(6) {
			a.Assign, a.ClusterSizes = ints, []int{}
		}
		if !bit(7) {
			a.NearestReps = []RepresentativeJSON{}
			for i, x := range ints {
				a.NearestReps = append(a.NearestReps, RepresentativeJSON{
					Cluster: i, Workload: strs[i%len(strs)], Index: x, ClusterSize: -x,
				})
			}
			a.FarthestReps = a.NearestReps[len(a.NearestReps)/2:]
		}
		checkCanonical(t, "analysis", a)
	})
}

// BenchmarkMarshalCanonicalWide times the canonical encode of a 1024-row
// analysis, the result body of a wide analysis.
func BenchmarkMarshalCanonicalWide(b *testing.B) {
	a := wideAnalysis(1024)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := MarshalCanonical(a); err != nil {
			b.Fatal(err)
		}
	}
}
