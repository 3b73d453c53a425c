package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// TestInProcessResultGolden pins the result bytes of the in-process
// pipeline (no Execute hook, no data directory) for both job modes at two
// parallelism settings. The coordinator tests compare a fleet against the
// same in-process code, so only a literal pins what that code answers.
func TestInProcessResultGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned encodings are recorded on amd64")
	}
	cases := []struct {
		name, mode, want string
	}{
		{"analyze", ModeAnalyze, "f1ef3f716d2cb18d0e63863cb52a1339002e509f7caabbf8434a94c03aae197d"},
		{"observations", ModeObservations, "54ee62bdd5a82c6d3de2702231a704dce47a11cc55374844c5df95a30c4f1a9e"},
	}
	for _, c := range cases {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/p=%d", c.name, par), func(t *testing.T) {
				m, err := New(Config{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				spec := tinySpec()
				spec.Mode = c.mode
				_, data := runDone(t, m, spec)
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != c.want {
					t.Errorf("result hash %s, pinned %s", got, c.want)
				}
			})
		}
	}
}
