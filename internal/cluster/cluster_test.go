package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// newTestCluster builds a 2-replica cluster where "self" is a fake
// address (never dialled) and the other peer is an httptest server.
func newTestCluster(t *testing.T, peerURL string, cfg Config) *Cluster {
	t.Helper()
	cfg.Self = "http://self.invalid:1"
	cfg.Peers = []string{cfg.Self, peerURL}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1 // tests drive ProbeNow explicitly
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestConfigValidation: self must be in the peer set; spellings
// normalize before comparing.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Self: "", Peers: []string{"a:1"}}); err == nil {
		t.Error("empty Self accepted")
	}
	if _, err := New(Config{Self: "a:1", Peers: []string{"b:2"}}); err == nil {
		t.Error("Self outside the peer set accepted")
	}
	c, err := New(Config{
		Self:          "10.0.0.1:8080",
		Peers:         []string{"http://10.0.0.1:8080/", "10.0.0.2:8080"},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatalf("normalized self spelling rejected: %v", err)
	}
	defer c.Close()
	if c.Self() != "http://10.0.0.1:8080" {
		t.Errorf("Self = %q", c.Self())
	}
	if got := len(c.Peers()); got != 2 {
		t.Errorf("peer set size = %d, want 2 (deduped, normalized)", got)
	}
	if !c.IsSelf("10.0.0.1:8080") || c.IsSelf("10.0.0.2:8080") {
		t.Error("IsSelf does not normalize")
	}
}

// TestProbeMarksDownAndUp drives the membership lifecycle: a serving
// peer stays up, a 503 readyz marks it down, recovery marks it up
// again — all without restarting anything.
func TestProbeMarksDownAndUp(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/readyz" {
			t.Errorf("probe hit %s, want /v1/readyz", r.URL.Path)
		}
		if r.Header.Get(PeerHeader) == "" {
			t.Error("probe missing the internal peer header")
		}
		if ready.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer hs.Close()

	c := newTestCluster(t, hs.URL, Config{})
	peer := Normalize(hs.URL)
	if !c.Up(peer) {
		t.Fatal("fresh peer should start optimistic-up")
	}

	c.ProbeNow()
	if !c.Up(peer) {
		t.Fatal("healthy peer marked down")
	}
	if got := c.UpPeers(); len(got) != 1 || got[0] != peer {
		t.Fatalf("UpPeers = %v", got)
	}

	ready.Store(false)
	c.ProbeNow()
	if c.Up(peer) {
		t.Fatal("unready peer still up after probe")
	}
	if got := c.UpPeers(); len(got) != 0 {
		t.Fatalf("UpPeers after down = %v", got)
	}

	ready.Store(true)
	c.ProbeNow()
	if !c.Up(peer) {
		t.Fatal("recovered peer did not rejoin")
	}
	st := c.Status()
	if len(st) != 2 {
		t.Fatalf("Status has %d peers", len(st))
	}
	for _, s := range st {
		if s.Name == peer && s.ProbeLatency <= 0 {
			t.Error("probe latency not recorded")
		}
	}
}

// TestRoundtripRelaysAndMarks: responses (errors included) come back
// verbatim; a dead peer fails fast once marked down; retries survive
// a transient connection failure.
func TestRoundtripRelays(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if r.Header.Get(PeerHeader) != "http://self.invalid:1" {
			t.Errorf("peer header = %q", r.Header.Get(PeerHeader))
		}
		if r.URL.Path == "/v1/traces/x" {
			w.WriteHeader(http.StatusNotFound)
			io.WriteString(w, `{"error":{"code":"trace_not_found","message":"x"}}`)
			return
		}
		b, _ := io.ReadAll(r.Body)
		w.WriteHeader(http.StatusOK)
		w.Write(b)
	}))
	defer hs.Close()
	c := newTestCluster(t, hs.URL, Config{RetryBackoff: time.Millisecond})
	peer := Normalize(hs.URL)

	// A body echoes through; headers ride along.
	resp, err := c.Roundtrip(context.Background(), peer, http.MethodPost, "/echo",
		http.Header{"Content-Type": []string{"application/json"}}, []byte("payload"))
	if err != nil {
		t.Fatalf("Roundtrip: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "payload" {
		t.Fatalf("echo = %q", b)
	}

	// An HTTP error status is the answer, not a retry trigger.
	before := hits.Load()
	resp, err = c.Roundtrip(context.Background(), peer, http.MethodGet, "/v1/traces/x", nil, nil)
	if err != nil {
		t.Fatalf("Roundtrip(404): %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if hits.Load() != before+1 {
		t.Fatalf("a 404 was retried: %d extra requests", hits.Load()-before-1)
	}
}

// TestRoundtripDeadPeer: transport failure marks the peer down and
// the next call fails fast with ErrPeerDown, no dialling.
func TestRoundtripDeadPeer(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := hs.URL
	hs.Close() // nothing listens any more

	c := newTestCluster(t, url, Config{Retries: 1, RetryBackoff: time.Millisecond})
	peer := Normalize(url)
	if _, err := c.Roundtrip(context.Background(), peer, http.MethodGet, "/x", nil, nil); err == nil {
		t.Fatal("roundtrip to a dead peer succeeded")
	}
	if c.Up(peer) {
		t.Fatal("dead peer still marked up after transport failure")
	}
	_, err := c.Roundtrip(context.Background(), peer, http.MethodGet, "/x", nil, nil)
	if err != ErrPeerDown {
		t.Fatalf("second call error = %v, want ErrPeerDown", err)
	}
	if _, err := c.Roundtrip(context.Background(), "http://never-configured:1", http.MethodGet, "/x", nil, nil); err == nil {
		t.Fatal("unknown peer accepted")
	}
}

// TestBackgroundProber: the loop itself probes without ProbeNow.
func TestBackgroundProber(t *testing.T) {
	var probes atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
	}))
	defer hs.Close()
	c := newTestCluster(t, hs.URL, Config{ProbeInterval: 5 * time.Millisecond})
	deadline := time.Now().Add(2 * time.Second)
	for probes.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c.Close()
	if probes.Load() < 2 {
		t.Fatalf("background prober made %d probes", probes.Load())
	}
}

// TestReplicationClampAndOwners pins the replication factor plumbing:
// the default is 2, negatives collapse to 1, the factor clamps to the
// peer set size, and Cluster.Owners honours it with the self-consistent
// rendezvous order (first entry == Owner).
func TestReplicationClampAndOwners(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	mk := func(replication int) *Cluster {
		t.Helper()
		c, err := New(Config{Self: peers[0], Peers: peers, Replication: replication, ProbeInterval: -1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(c.Close)
		return c
	}
	if got := mk(0).Replication(); got != 2 {
		t.Errorf("default replication = %d, want 2", got)
	}
	if got := mk(-5).Replication(); got != 1 {
		t.Errorf("negative replication = %d, want 1", got)
	}
	if got := mk(99).Replication(); got != len(peers) {
		t.Errorf("oversized replication = %d, want clamp to %d", got, len(peers))
	}
	c := mk(2)
	key := "deadbeef"
	owners := c.Owners(key)
	if len(owners) != 2 {
		t.Fatalf("Owners returned %d peers, want 2", len(owners))
	}
	if owners[0] != c.Owner(key) {
		t.Errorf("Owners[0] = %s, Owner = %s", owners[0], c.Owner(key))
	}
	if owners[0] == owners[1] {
		t.Error("Owners repeats a peer")
	}
}

// TestClusterOfOneStartsNoProber: a one-entry peer set is a cluster of
// one — every key self-owned, Replication clamped to 1 — and has no
// other peer to probe, so even with a positive ProbeInterval no prober
// goroutine runs (done is closed from the start).
func TestClusterOfOneStartsNoProber(t *testing.T) {
	c, err := New(Config{Self: "localhost", Peers: []string{"localhost"}, ProbeInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	select {
	case <-c.done:
	default:
		t.Fatal("a one-peer cluster started a prober")
	}
	if got := c.Replication(); got != 1 {
		t.Errorf("replication = %d, want the clamp to 1", got)
	}
	if owners := c.Owners("deadbeef"); len(owners) != 1 || !c.IsSelf(owners[0]) {
		t.Errorf("owners = %v, want just self", owners)
	}
	if up := c.UpPeers(); len(up) != 0 {
		t.Errorf("UpPeers = %v, want none", up)
	}
}
