package kmeans

import "testing"

// TestRunAllocsBounded checks that Lloyd iterations allocate nothing: one
// restart at K=12 over 1 024 rows makes a fixed number of allocations
// (its result and per-restart scratch), however many points and
// iterations it runs. Copying rows would cost one allocation per point
// per candidate center per iteration, hundreds of thousands here.
func TestRunAllocsBounded(t *testing.T) {
	pts := wideBlobs(1024)
	cfg := Config{Restarts: 1, Seed: 7, Parallelism: 1}
	var iters int
	allocs := testing.AllocsPerRun(3, func() {
		res, err := Run(pts, 12, cfg)
		if err != nil {
			t.Fatal(err)
		}
		iters = res.Iterations
	})
	if allocs >= 64 {
		t.Errorf("Run(1024×8, K=12, 1 restart, %d iterations) made %.0f allocations, want < 64", iters, allocs)
	}
}

// BenchmarkBestKWide times the wide-scale golden's K scan: 512×8, K 2…12,
// 16 restarts, at GOMAXPROCS parallelism.
func BenchmarkBestKWide(b *testing.B) {
	pts := wideBlobs(512)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := BestK(pts, 2, 12, wideCfg); err != nil {
			b.Fatal(err)
		}
	}
}
