package benchio

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// canonicalWriter appends the bytes json.MarshalIndent(v, "", "  ")
// produces for this package's wire types, in one pass over one buffer
// sized up front. encoding/json is its specification: struct fields in
// declaration order under their tag names, a nil slice as null and an
// empty one as [], floats in the ES6 form, strings with HTML escaping
// and invalid UTF-8 replaced, and NaN or ±Inf an UnsupportedValueError
// (the first one met, in field order).
type canonicalWriter struct {
	b   []byte
	err error
}

// Upper bounds on the encoded length of one value: a float64 in the ES6
// form ("-0.0000012345678901234567") and an int ("-9223372036854775808").
// A string of n bytes takes at most 6n+2 (every byte as \u00XX).
const maxFloatLen, maxIntLen = 25, 20

// maxFieldLen bounds one object field's framing: the separating comma,
// the newline and indent, and the quoted key with its ": ".
func maxFieldLen(depth int) int { return 2*depth + 32 }

// arrayLen bounds an array at depth holding n elements whose encodings
// total at most elems bytes: the brackets, and per element a comma, a
// newline and the element's indent.
func arrayLen(depth, n, elems int) int { return 4 + 2*depth + n*(2+2*(depth+1)) + elems }

func floatsLen(depth int, xs []float64) int { return arrayLen(depth, len(xs), len(xs)*maxFloatLen) }

func intsLen(depth int, xs []int) int { return arrayLen(depth, len(xs), len(xs)*maxIntLen) }

func stringsLen(depth int, ss []string) int {
	elems := 0
	for _, s := range ss {
		elems += 6*len(s) + 2
	}
	return arrayLen(depth, len(ss), elems)
}

func rowsLen(depth int, rows [][]float64) int {
	elems := 0
	for _, r := range rows {
		elems += floatsLen(depth+1, r)
	}
	return arrayLen(depth, len(rows), elems)
}

func datasetLen(depth int, d *DatasetJSON) int {
	return 4 + 2*depth + 3*maxFieldLen(depth+1) +
		stringsLen(depth+1, d.Labels) + stringsLen(depth+1, d.Metrics) + rowsLen(depth+1, d.Rows)
}

func repsLen(depth int, reps []RepresentativeJSON) int {
	elems := 0
	for _, r := range reps {
		elems += 4 + 2*(depth+1) + 4*maxFieldLen(depth+2) + 3*maxIntLen + 6*len(r.Workload) + 2
	}
	return arrayLen(depth, len(reps), elems)
}

func analysisLen(a *AnalysisJSON) int {
	return 4 + 13*maxFieldLen(1) + datasetLen(1, &a.Dataset) +
		3*maxIntLen + 5*maxFloatLen + intsLen(1, a.Assign) + intsLen(1, a.ClusterSizes) +
		repsLen(1, a.NearestReps) + repsLen(1, a.FarthestReps) + stringsLen(1, a.Subset)
}

func observationsLen(o *ObservationsJSON) int {
	cells := 0
	for _, wl := range o.Cells {
		runs := 0
		for _, run := range wl {
			runs += rowsLen(3, run)
		}
		cells += arrayLen(2, len(wl), runs)
	}
	return 4 + 4*maxFieldLen(1) + stringsLen(1, o.Labels) + stringsLen(1, o.Metrics) +
		maxIntLen + arrayLen(1, len(o.Cells), cells)
}

// newline starts a line indented to depth.
func (w *canonicalWriter) newline(depth int) {
	w.b = append(w.b, '\n')
	for ; depth > 0; depth-- {
		w.b = append(w.b, ' ', ' ')
	}
}

// field starts the value of an object's field name at depth; the
// object's opening brace is the only thing a first field follows.
func (w *canonicalWriter) field(depth int, name string) {
	if w.b[len(w.b)-1] != '{' {
		w.b = append(w.b, ',')
	}
	w.newline(depth)
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':', ' ')
}

// end closes an object or array whose members sit at depth+1.
func (w *canonicalWriter) end(depth int, c byte) {
	w.newline(depth)
	w.b = append(w.b, c)
}

func (w *canonicalWriter) int(_ int, x int) { w.b = strconv.AppendInt(w.b, int64(x), 10) }

// float is encoding/json's floatEncoder for 64 bits: strconv's shortest
// form, in 'e' notation outside [1e-6, 1e21) with the exponent's leading
// zero dropped (e-09 → e-9).
func (w *canonicalWriter) float(_ int, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		n := len(w.b)
		if n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// string is encoding/json's appendString with HTML escaping on: <, >, &,
// control bytes, quotes and backslashes escaped, each invalid UTF-8 byte
// as \ufffd, and U+2028 and U+2029 escaped.
func (w *canonicalWriter) string(_ int, s string) {
	const hex = "0123456789abcdef"
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

// array writes xs at depth, each element on its own line at depth+1.
func array[T any](w *canonicalWriter, depth int, xs []T, elem func(*canonicalWriter, int, T)) {
	switch {
	case xs == nil:
		w.b = append(w.b, "null"...)
		return
	case len(xs) == 0:
		w.b = append(w.b, "[]"...)
		return
	}
	w.b = append(w.b, '[')
	for i, x := range xs {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.newline(depth + 1)
		elem(w, depth+1, x)
	}
	w.end(depth, ']')
}

func (w *canonicalWriter) floats(depth int, xs []float64) {
	array(w, depth, xs, (*canonicalWriter).float)
}

func (w *canonicalWriter) rows(depth int, xs [][]float64) {
	array(w, depth, xs, (*canonicalWriter).floats)
}

func (w *canonicalWriter) runs(depth int, xs [][][]float64) {
	array(w, depth, xs, (*canonicalWriter).rows)
}

func (w *canonicalWriter) dataset(depth int, d *DatasetJSON) {
	w.b = append(w.b, '{')
	w.field(depth+1, "labels")
	array(w, depth+1, d.Labels, (*canonicalWriter).string)
	w.field(depth+1, "metrics")
	array(w, depth+1, d.Metrics, (*canonicalWriter).string)
	w.field(depth+1, "rows")
	w.rows(depth+1, d.Rows)
	w.end(depth, '}')
}

func (w *canonicalWriter) representative(depth int, r RepresentativeJSON) {
	w.b = append(w.b, '{')
	w.field(depth+1, "cluster")
	w.int(0, r.Cluster)
	w.field(depth+1, "workload")
	w.string(0, r.Workload)
	w.field(depth+1, "index")
	w.int(0, r.Index)
	w.field(depth+1, "cluster_size")
	w.int(0, r.ClusterSize)
	w.end(depth, '}')
}

func (w *canonicalWriter) analysis(a *AnalysisJSON) {
	w.b = append(w.b, '{')
	w.field(1, "dataset")
	w.dataset(1, &a.Dataset)
	w.field(1, "num_pcs")
	w.int(0, a.NumPCs)
	w.field(1, "variance_retained")
	w.float(0, a.Variance)
	w.field(1, "best_k")
	w.int(0, a.BestK)
	w.field(1, "bic")
	w.float(0, a.BIC)
	w.field(1, "inertia")
	w.float(0, a.Inertia)
	w.field(1, "assign")
	array(w, 1, a.Assign, (*canonicalWriter).int)
	w.field(1, "cluster_sizes")
	array(w, 1, a.ClusterSizes, (*canonicalWriter).int)
	w.field(1, "nearest_reps")
	array(w, 1, a.NearestReps, (*canonicalWriter).representative)
	w.field(1, "farthest_reps")
	array(w, 1, a.FarthestReps, (*canonicalWriter).representative)
	w.field(1, "nearest_max_linkage")
	w.float(0, a.NearestMaxLinkage)
	w.field(1, "farthest_max_linkage")
	w.float(0, a.FarthestMaxLinkage)
	w.field(1, "subset")
	array(w, 1, a.Subset, (*canonicalWriter).string)
	w.end(0, '}')
}

func (w *canonicalWriter) observations(o *ObservationsJSON) {
	w.b = append(w.b, '{')
	w.field(1, "labels")
	array(w, 1, o.Labels, (*canonicalWriter).string)
	w.field(1, "metrics")
	array(w, 1, o.Metrics, (*canonicalWriter).string)
	w.field(1, "node_offset")
	w.int(0, o.NodeOffset)
	w.field(1, "cells")
	array(w, 1, o.Cells, (*canonicalWriter).runs)
	w.end(0, '}')
}

// canonical returns the writer's bytes with MarshalCanonical's trailing
// newline, or its first error.
func (w *canonicalWriter) canonical() ([]byte, error) {
	if w.err != nil {
		return nil, marshalError(w.err)
	}
	return append(w.b, '\n'), nil
}
