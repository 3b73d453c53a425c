package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster/hier"
)

// decodeRequest decodes a submission body as the POST /v1/jobs handler
// does: unknown fields are an error.
func decodeRequest(data []byte) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func TestJobRequestToSpec(t *testing.T) {
	cases := []struct {
		body    string
		linkage hier.Linkage
		id      string // the job ID, when pinned
		err     string // the error must contain this, when set
	}{
		{body: `{}`, linkage: hier.Single, id: goldenDefaultID},
		{body: `{"linkage":"single"}`, linkage: hier.Single, id: goldenDefaultID},
		{body: `{"linkage":"complete"}`, linkage: hier.Complete},
		{body: `{"linkage":"average"}`, linkage: hier.Average},
		{body: `{"linkage":"ward"}`, linkage: hier.Ward},
		{body: `{"linkage":"Ward"}`, linkage: hier.Ward},
		{body: `{"linkage":"median"}`, err: "single, complete, average, ward"},
		{body: `{"mode":"observations","workloads":["H-Sort","S-Sort","H-Grep","S-Grep"],"nodes":2,"instructions":6000}`,
			id: goldenObservationsID},
		{body: `{"nodes":3,"spec":{}}`, err: "mutually exclusive"},
		{body: `{"presets":["Nope"]}`, err: "unknown preset"},
	}
	ids := make(map[string]string)
	for _, tc := range cases {
		req, err := decodeRequest([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		spec, err := req.ToSpec()
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: error %v, want one containing %q", tc.body, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		id, err := spec.ID()
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if tc.id != "" && id != tc.id {
			t.Errorf("%s: job ID %s, pinned %s", tc.body, id, tc.id)
		}
		if spec.Mode == ModeAnalyze && spec.Analysis.Linkage != tc.linkage {
			t.Errorf("%s: linkage %v, want %v", tc.body, spec.Analysis.Linkage, tc.linkage)
		}
		ids[tc.body] = id
	}
	if ids[`{"linkage":"ward"}`] == ids[`{}`] {
		t.Error("a ward request shares the default job's ID")
	}
}

// FuzzJobRequestToSpec decodes arbitrary bytes as a job submission — the
// input the daemons and report read from outside the program — and checks
// that materializing and normalizing it never panics, that Normalized is
// idempotent, and that a spec and its normal form share one job ID.
func FuzzJobRequestToSpec(f *testing.F) {
	spec := func(s JobSpec) string {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		return `{"spec":` + string(data) + `}`
	}
	for _, seed := range []string{
		`{"workloads":["H-Sort","S-Sort"],"nodes":2,"instructions":6000,"kmax":3}`,
		`{"presets":["MemThrash"],"workloads":["H-MemThrash","H-Sort"],"linkage":"ward","seed":7}`,
		`{"mode":"observations","custom_workloads":[{"name":"Probe","data":{"paper_bytes":1073741824,"skew":0.3},
			"mix":{"LoadFrac":0.3,"StoreFrac":0.1,"SeqFrac":0.6}}],"runs":2,"multiplex":false}`,
		spec(DefaultSpec()),
		spec(goldenObservationsSpec()),
		spec(fastCustomSpec()),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		raw, err := req.ToSpec()
		if err != nil {
			return
		}
		n, err := raw.Normalized()
		if err != nil {
			return
		}
		nn, err := n.Normalized()
		if err != nil {
			t.Fatalf("normalized spec fails to normalize again: %v\n%+v", err, n)
		}
		if !reflect.DeepEqual(n, nn) {
			t.Fatalf("Normalized is not idempotent:\nonce  %+v\ntwice %+v", n, nn)
		}
		rawID, err := raw.ID()
		if err != nil {
			t.Fatal(err)
		}
		normID, err := n.ID()
		if err != nil {
			t.Fatal(err)
		}
		if rawID != normID {
			t.Fatalf("raw spec ID %s, normalized spec ID %s", rawID, normID)
		}
	})
}
