package shard

import (
	"context"
	"fmt"
	"log/slog"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/service/client"
)

// Worker-membership sources. Flag-seeded workers are permanent fleet
// members (nothing heartbeats them, so they never expire); registered
// workers hold a TTL lease that must be renewed by heartbeat.
const (
	SourceFlag       = "flag"
	SourceRegistered = "registered"
)

// Lease bounds: a requested TTL of zero takes the default; anything
// shorter than the minimum is clamped so a typo'd TTL cannot make a
// worker flap in and out of the fleet faster than the dispatch loops
// poll membership.
const (
	DefaultLeaseTTL = 30 * time.Second
	minLeaseTTL     = time.Second
)

// registry is the coordinator's dynamic fleet membership table: one
// workerState per member, keyed by normalized base URL. Flag-seeded
// members are permanent; registered members are held by a TTL lease
// renewed by heartbeat (a repeated register call). Expired leases are
// swept lazily by snapshot(), which every consumer — the dispatch
// supervisor, the background prober, /v1/workers — calls on its own
// cadence, so a silent worker disappears from the fleet within one poll
// tick of its lease lapsing.
type registry struct {
	threshold int
	mkClient  func(string) *client.Client
	mx        *shardMetrics
	log       *slog.Logger

	mu      sync.Mutex
	members map[string]*workerState
	order   []string // join order, for stable status listings
}

func newRegistry(threshold int, mkClient func(string) *client.Client, mx *shardMetrics, log *slog.Logger) *registry {
	return &registry{
		threshold: threshold,
		mkClient:  mkClient,
		mx:        mx,
		log:       log,
		members:   make(map[string]*workerState),
	}
}

// leaseEvent records one membership lease event on the metrics and log
// hooks.
func (r *registry) leaseEvent(event, u string, level slog.Level, msg string, attrs ...any) {
	r.mx.leaseEvents.With(event).Inc()
	r.log.Log(context.Background(), level, msg, append([]any{"worker", u}, attrs...)...)
}

// normalizeWorkerURL validates and canonicalizes a worker base URL so
// that registration, heartbeat and deregistration of the same worker
// always hit the same membership key.
func normalizeWorkerURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("shard: worker url %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("shard: worker url %q must be absolute http(s)", raw)
	}
	return raw, nil
}

// seed adds a permanent flag-configured member (no lease, never expires).
func (r *registry) seed(rawURL string) error {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[u]; ok {
		return nil
	}
	w := newWorkerState(u, r.mkClient(u), r.threshold, r.mx, r.log)
	w.source = SourceFlag
	w.registeredAt = time.Now()
	r.members[u] = w
	r.order = append(r.order, u)
	return nil
}

// register adds a worker under a TTL lease, or — when the worker is
// already a member — renews its lease (the heartbeat path). A renewal
// keeps the member's breaker and counter history; only a fresh join
// starts from a clean closed breaker. Flag-seeded members accept
// heartbeats too (the timestamp shows in /v1/workers) but never expire.
// Returns the member and whether this call created it.
func (r *registry) register(rawURL string, ttl time.Duration) (*workerState, bool, error) {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return nil, false, err
	}
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if ttl < minLeaseTTL {
		ttl = minLeaseTTL
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(now)
	if w, ok := r.members[u]; ok {
		w.mu.Lock()
		w.lastHeartbeat = now
		if w.source == SourceRegistered {
			w.ttl = ttl
		}
		w.mu.Unlock()
		r.leaseEvent("renew", u, slog.LevelDebug, "worker lease renewed", "ttl", ttl)
		return w, false, nil
	}
	w := newWorkerState(u, r.mkClient(u), r.threshold, r.mx, r.log)
	w.source = SourceRegistered
	w.registeredAt = now
	w.lastHeartbeat = now
	w.ttl = ttl
	r.members[u] = w
	r.order = append(r.order, u)
	r.leaseEvent("register", u, slog.LevelInfo, "worker joined fleet", "ttl", ttl, "fleet_size", len(r.members))
	return w, true, nil
}

// deregister removes a member immediately (an orderly leave — the worker
// releasing its own lease on shutdown, or an operator evicting it). The
// member's gone channel closes, so dispatch loops holding one of its
// in-flight units release the unit back to the queue without charging an
// attempt.
func (r *registry) deregister(rawURL string) bool {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.members[u]
	if !ok {
		return false
	}
	r.removeLocked(u, w)
	r.leaseEvent("deregister", u, slog.LevelInfo, "worker left fleet", "fleet_size", len(r.members))
	return true
}

// snapshot returns the current membership in join order, sweeping
// expired leases first. This is the single read path for every consumer,
// which is what makes lazy expiry sound: nothing acts on a member
// without passing through the sweep.
func (r *registry) snapshot() []*workerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(time.Now())
	out := make([]*workerState, 0, len(r.order))
	for _, u := range r.order {
		out = append(out, r.members[u])
	}
	return out
}

// expireLocked sweeps members whose lease lapsed. Callers hold r.mu.
func (r *registry) expireLocked(now time.Time) {
	for u, w := range r.members {
		w.mu.Lock()
		expired := w.source == SourceRegistered && w.ttl > 0 && now.Sub(w.lastHeartbeat) > w.ttl
		w.mu.Unlock()
		if expired {
			r.removeLocked(u, w)
			r.leaseEvent("expire", u, slog.LevelWarn, "worker lease expired", "fleet_size", len(r.members))
		}
	}
}

// removeLocked deletes a member and closes its gone channel. Callers
// hold r.mu.
func (r *registry) removeLocked(u string, w *workerState) {
	w.depart()
	delete(r.members, u)
	for i, o := range r.order {
		if o == u {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// Register adds a worker to the fleet under a TTL lease, or renews an
// existing member's lease — the body of bdcoord's POST /v1/workers, and
// the heartbeat path for bdservd -register. Running jobs pick the new
// member up within one dispatch poll tick: it immediately starts
// stealing units from their queues.
func (e *Executor) Register(rawURL string, ttl time.Duration) (WorkerStatus, error) {
	w, _, err := e.reg.register(rawURL, ttl)
	if err != nil {
		return WorkerStatus{}, err
	}
	return w.snapshot(), nil
}

// Deregister removes a worker from the fleet immediately, releasing any
// units it holds in flight back to their job queues. Reports whether the
// worker was a member.
func (e *Executor) Deregister(rawURL string) bool {
	return e.reg.deregister(rawURL)
}
