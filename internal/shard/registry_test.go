package shard

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service/client"
)

func testRegistry() *registry {
	return newRegistry(3, func(u string) *client.Client { return client.New(u) }, newShardMetrics(obs.NewRegistry()), discardLog)
}

func TestNormalizeWorkerURL(t *testing.T) {
	good := map[string]string{
		"http://h1:8356":     "http://h1:8356",
		"http://h1:8356/":    "http://h1:8356",
		" https://h2/ ":      "https://h2",
		"http://127.0.0.1:9": "http://127.0.0.1:9",
	}
	for in, want := range good {
		got, err := normalizeWorkerURL(in)
		if err != nil || got != want {
			t.Errorf("normalizeWorkerURL(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "h1:8356", "ftp://h1", "http://", "/just/a/path"} {
		if got, err := normalizeWorkerURL(bad); err == nil {
			t.Errorf("normalizeWorkerURL(%q) = %q, want error", bad, got)
		}
	}
}

// TestRegistrySeedAndRegister: flag-seeded members are permanent and
// keep join order alongside registered ones; registering an existing
// member renews rather than replaces it (breaker history survives a
// heartbeat).
func TestRegistrySeedAndRegister(t *testing.T) {
	r := testRegistry()
	if err := r.seed("http://flag:1/"); err != nil {
		t.Fatal(err)
	}
	w, created, err := r.register("http://reg:2", 0)
	if err != nil || !created {
		t.Fatalf("register = created %v, err %v; want fresh member", created, err)
	}
	if w.source != SourceRegistered || w.ttl != DefaultLeaseTTL {
		t.Fatalf("registered member: source %q ttl %v; want %q %v", w.source, w.ttl, SourceRegistered, DefaultLeaseTTL)
	}
	// Heartbeat: same member back, TTL re-clamped up from a too-short ask.
	w2, created, err := r.register("http://reg:2/", 10*time.Millisecond)
	if err != nil || created || w2 != w {
		t.Fatalf("heartbeat returned created=%v err=%v same=%v; want renewal of the same member", created, err, w2 == w)
	}
	if w.ttl != minLeaseTTL {
		t.Fatalf("heartbeat ttl = %v, want clamped %v", w.ttl, minLeaseTTL)
	}
	snap := r.snapshot()
	if len(snap) != 2 || snap[0].url != "http://flag:1" || snap[1].url != "http://reg:2" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	// A heartbeat on a flag member records the timestamp but never makes
	// it expirable.
	if _, created, err := r.register("http://flag:1", time.Millisecond); err != nil || created {
		t.Fatalf("flag heartbeat: created %v err %v", created, err)
	}
	if snap[0].ttl != 0 {
		t.Fatalf("flag member gained ttl %v, must stay permanent", snap[0].ttl)
	}
}

// TestRegistryLeaseExpiry: a registered member whose heartbeat lapses
// is swept by the next snapshot and its gone channel closes, releasing
// in-flight units; flag members never expire.
func TestRegistryLeaseExpiry(t *testing.T) {
	r := testRegistry()
	if err := r.seed("http://flag:1"); err != nil {
		t.Fatal(err)
	}
	w, _, err := r.register("http://reg:2", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Backdate the heartbeat past the lease instead of sleeping.
	w.mu.Lock()
	w.lastHeartbeat = time.Now().Add(-2 * time.Second)
	w.mu.Unlock()
	snap := r.snapshot()
	if len(snap) != 1 || snap[0].url != "http://flag:1" {
		t.Fatalf("expired member still present: %+v", snap)
	}
	if !w.departed() {
		t.Fatal("expired member's gone channel not closed")
	}
	// A lapsed worker registering again is a fresh join with fresh state.
	w2, created, err := r.register("http://reg:2", time.Second)
	if err != nil || !created || w2 == w {
		t.Fatalf("post-expiry register: created %v err %v same-state %v; want a fresh member", created, err, w2 == w)
	}
}

// TestRegistryDeregister: an orderly leave removes the member at once,
// closes gone, and reports membership truthfully.
func TestRegistryDeregister(t *testing.T) {
	r := testRegistry()
	w, _, err := r.register("http://reg:2", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !r.deregister("http://reg:2/") {
		t.Fatal("deregister of a member returned false")
	}
	if !w.departed() {
		t.Fatal("deregistered member's gone channel not closed")
	}
	if r.deregister("http://reg:2") {
		t.Fatal("deregister of a non-member returned true")
	}
	if len(r.snapshot()) != 0 {
		t.Fatal("fleet not empty after deregistration")
	}
}

// TestWorkerStatusLeaseFields: /v1/workers surfaces the lease (source,
// registration time, heartbeat, TTL and clamped remaining seconds).
func TestWorkerStatusLeaseFields(t *testing.T) {
	r := testRegistry()
	if err := r.seed("http://flag:1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.register("http://reg:2", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	snap := r.snapshot()
	flag, reg := snap[0].snapshot(), snap[1].snapshot()
	if flag.Source != SourceFlag || flag.TTLSeconds != 0 || flag.TTLRemainingSeconds != nil {
		t.Errorf("flag status has lease fields: %+v", flag)
	}
	if reg.Source != SourceRegistered || reg.TTLSeconds != 5 ||
		reg.LastHeartbeat == nil || reg.TTLRemainingSeconds == nil {
		t.Fatalf("registered status missing lease fields: %+v", reg)
	}
	if rem := *reg.TTLRemainingSeconds; rem <= 0 || rem > 5 {
		t.Errorf("ttl remaining %v out of (0, 5]", rem)
	}
	// A lapsed lease reports zero remaining, not negative — the status
	// listing is for operators, sweep timing is snapshot's.
	snap[1].mu.Lock()
	snap[1].lastHeartbeat = time.Now().Add(-time.Minute)
	snap[1].mu.Unlock()
	if rem := *snap[1].snapshot().TTLRemainingSeconds; rem != 0 {
		t.Errorf("lapsed lease remaining = %v, want 0", rem)
	}
}
