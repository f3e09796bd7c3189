package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PeerHeader marks a request as fleet-internal: the sending replica's
// advertise address. A replica receiving it serves the request locally
// — no re-routing, no scatter-gather — which both prevents proxy loops
// and gives the fan-out primitives a "just your own corpus" scope.
const PeerHeader = "X-Memgazed-Peer"

// ErrPeerDown is returned by Roundtrip when the target peer is marked
// down, without attempting the network. Callers map it (and transport
// failures) onto the peer_unavailable error contract.
var ErrPeerDown = errors.New("cluster: peer is down")

// Config parameterises a Cluster. Zero fields take the defaults noted.
type Config struct {
	// Self is this replica's own advertise address; it must appear in
	// Peers (addresses compare after normalisation, so "host:port" and
	// "http://host:port" are the same peer).
	Self string
	// Peers is the full static replica set, self included. Every
	// replica must be configured with the same set — ownership is a
	// pure function of it.
	Peers []string
	// Replication is how many replicas own each key: every trace is
	// written to the top-Replication peers of its rendezvous order and
	// reads fail over along that order (default 2; clamped to the peer
	// count; at 1 the failover walk covers a one-owner list).
	Replication int
	// ProbeInterval is the membership prober's period (default 2s;
	// <0 disables the background loop — ProbeNow still works, which is
	// what tests drive).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one readyz probe (default 1s).
	ProbeTimeout time.Duration
	// RequestTimeout bounds one proxied request end to end, all retries
	// included (default 60s — a proxied analyze runs a full engine
	// suite on the owner).
	RequestTimeout time.Duration
	// Retries is how many times a proxied request is re-sent after a
	// transport failure (default 2; the response statuses themselves
	// are never retried — an owner's 404 is the answer).
	Retries int
	// RetryBackoff is the base delay between retries, growing linearly
	// per attempt (default 50ms).
	RetryBackoff time.Duration
}

func (c *Config) applyDefaults() {
	if c.Replication == 0 {
		c.Replication = 2
	} else if c.Replication < 0 {
		c.Replication = 1
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
}

// Normalize canonicalises a peer address: "host:port" gains the http
// scheme, trailing slashes drop. Ownership and identity compare
// normalized strings, so every spelling of the same replica hashes the
// same.
func Normalize(addr string) string {
	addr = strings.TrimSpace(addr)
	if addr != "" && !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/")
}

// peer is one replica's live membership state.
type peer struct {
	name        string      // normalized base URL; the ring identity
	up          atomic.Bool // last probe (or proxied request) verdict
	probeNanos  atomic.Int64
	probeFailed atomic.Uint64 // consecutive failed probes (observability)
}

// PeerStatus is one peer's state snapshot, rendered at /metrics.
type PeerStatus struct {
	Name         string
	Self         bool
	Up           bool
	ProbeLatency time.Duration
}

// Cluster is the fleet view of one replica: the static ring, live
// membership, and the proxy transport. All methods are safe for
// concurrent use.
type Cluster struct {
	cfg    Config
	self   string
	names  []string // sorted normalized peer names, self included
	peers  map[string]*peer
	client *http.Client

	quit chan struct{}
	done chan struct{}
	once sync.Once
}

// New validates the peer set and starts the membership prober. Self
// must appear in Peers. A one-entry set is a cluster of one — every key
// self-owned, the shape a single memgazed runs as — and starts no
// prober, since it has no other peer to probe.
func New(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	self := Normalize(cfg.Self)
	if self == "" {
		return nil, errors.New("cluster: Self is required")
	}
	seen := make(map[string]*peer)
	var names []string
	for _, p := range cfg.Peers {
		n := Normalize(p)
		if n == "" {
			continue
		}
		if _, dup := seen[n]; dup {
			continue
		}
		pr := &peer{name: n}
		pr.up.Store(true) // optimistic: a fresh fleet serves immediately
		seen[n] = pr
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, errors.New("cluster: Peers is empty")
	}
	if _, ok := seen[self]; !ok {
		return nil, fmt.Errorf("cluster: Self %q is not in the peer set %v", self, names)
	}
	sort.Strings(names)
	if cfg.Replication > len(names) {
		cfg.Replication = len(names)
	}
	c := &Cluster{
		cfg:    cfg,
		self:   self,
		names:  names,
		peers:  seen,
		client: &http.Client{}, // per-request deadlines via context
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if cfg.ProbeInterval > 0 && len(names) > 1 {
		go c.probeLoop()
	} else {
		close(c.done)
	}
	return c, nil
}

// Self returns this replica's normalized advertise address.
func (c *Cluster) Self() string { return c.self }

// Peers returns the sorted normalized peer set, self included.
func (c *Cluster) Peers() []string { return c.names }

// Owner returns the replica leading key's rendezvous order — the
// primary owner. Ownership is static over the full configured set: a
// down peer still owns its keys, and callers fail over along Owners
// rather than rehashing onto replicas that never held the data.
func (c *Cluster) Owner(key string) string { return Owner(c.names, key) }

// Owners returns key's replica set: the first Replication peers of its
// rendezvous order. Every replica computes the same list in the same
// order, so writes fan out to it and reads walk it front to back —
// membership changes the peer *answering*, never the set *owning*.
func (c *Cluster) Owners(key string) []string {
	return Owners(c.names, key, c.cfg.Replication)
}

// Replication returns the ownership factor: how many replicas hold
// each key (clamped to the peer count at construction).
func (c *Cluster) Replication() int { return c.cfg.Replication }

// IsSelf reports whether the (normalized) peer name is this replica.
func (c *Cluster) IsSelf(name string) bool { return Normalize(name) == c.self }

// Up reports whether peer is currently believed to be serving. Self is
// always up.
func (c *Cluster) Up(name string) bool {
	if p, ok := c.peers[Normalize(name)]; ok {
		return p.up.Load()
	}
	return false
}

// UpPeers returns the sorted up peers excluding self — the
// scatter-gather fan-out set.
func (c *Cluster) UpPeers() []string {
	var out []string
	for _, n := range c.names {
		if n != c.self && c.peers[n].up.Load() {
			out = append(out, n)
		}
	}
	return out
}

// Status snapshots every peer's membership state in name order.
func (c *Cluster) Status() []PeerStatus {
	out := make([]PeerStatus, 0, len(c.names))
	for _, n := range c.names {
		p := c.peers[n]
		out = append(out, PeerStatus{
			Name:         n,
			Self:         n == c.self,
			Up:           p.up.Load(),
			ProbeLatency: time.Duration(p.probeNanos.Load()),
		})
	}
	return out
}

// Close stops the membership prober.
func (c *Cluster) Close() {
	c.once.Do(func() { close(c.quit) })
	<-c.done
}

func (c *Cluster) probeLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
			c.ProbeNow()
		}
	}
}

// ProbeNow runs one synchronous probe round: every peer but self gets
// a GET /v1/readyz under the probe timeout; 200 marks it up, anything
// else (including transport failure) marks it down. A recovered peer
// rejoins here — no restart, no operator action.
func (c *Cluster) ProbeNow() {
	var wg sync.WaitGroup
	for _, n := range c.names {
		if n == c.self {
			continue
		}
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			c.probe(p)
		}(c.peers[n])
	}
	wg.Wait()
}

func (c *Cluster) probe(p *peer) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.name+"/v1/readyz", nil)
	if err != nil {
		p.up.Store(false)
		p.probeFailed.Add(1)
		return
	}
	req.Header.Set(PeerHeader, c.self)
	t0 := time.Now()
	resp, err := c.client.Do(req)
	p.probeNanos.Store(time.Since(t0).Nanoseconds())
	if err != nil {
		p.up.Store(false)
		p.probeFailed.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		p.up.Store(true)
		p.probeFailed.Store(0)
	} else {
		p.up.Store(false)
		p.probeFailed.Add(1)
	}
}

// Roundtrip sends one fleet-internal request to peer: method against
// path (which may carry a query string), hdr copied onto the request,
// body replayed on each retry. Transport failures retry with linear
// backoff under the overall request timeout; any HTTP response —
// including errors — is returned as-is, because the owner's 404 or 410
// IS the answer. A peer already marked down fails fast with
// ErrPeerDown; a final transport failure marks the peer down (the
// prober brings it back), and any response marks it up. The caller
// owns resp.Body.
func (c *Cluster) Roundtrip(ctx context.Context, peerName, method, path string, hdr http.Header, body []byte) (*http.Response, error) {
	p, ok := c.peers[Normalize(peerName)]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown peer %q", peerName)
	}
	if !p.up.Load() {
		return nil, ErrPeerDown
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				cancel()
				return nil, ctx.Err()
			case <-time.After(time.Duration(attempt) * c.cfg.RetryBackoff):
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, p.name+path, rd)
		if err != nil {
			cancel()
			return nil, err
		}
		for k, vs := range hdr {
			req.Header[k] = vs
		}
		req.Header.Set(PeerHeader, c.self)
		resp, err := c.client.Do(req)
		if err == nil {
			p.up.Store(true)
			// The response body must outlive this call; tie the timeout
			// to its closure so the deadline still bounds slow reads.
			resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // deadline or caller cancellation: retrying is pointless
		}
	}
	cancel()
	p.up.Store(false)
	return nil, fmt.Errorf("cluster: peer %s: %w", p.name, lastErr)
}

// cancelBody releases the request's timeout context when the response
// body is closed.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}
