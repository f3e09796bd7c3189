package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/memgaze/memgaze-go/internal/cluster"
)

// fleetReplica is one memgazed replica of a test fleet: a real TCP
// listener on a fixed loopback port (the address must survive a
// kill/restart cycle — ownership is bound to it), its own durable data
// directory, and the shared static peer set.
type fleetReplica struct {
	addr        string // host:port, the advertise address
	dir         string
	peers       []string
	replication int // 0 = the server default (2)
	srv         *Server
	hs          *http.Server
}

func (fr *fleetReplica) url() string { return "http://" + fr.addr }

// start boots (or, after stop, reboots) the replica: recover the
// durable store, join the static ring, serve on the fixed address. ln
// is the pre-bound listener on first boot; nil re-binds fr.addr.
func (fr *fleetReplica) start(t *testing.T, ln net.Listener) {
	t.Helper()
	srv, err := New(Config{
		DataDir:        fr.dir,
		Peers:          fr.peers,
		Advertise:      fr.addr,
		Replication:    fr.replication,
		ProbeInterval:  -1, // tests drive ProbeNow explicitly
		RepairInterval: -1, // and repairNow likewise
	})
	if err != nil {
		t.Fatalf("replica %s: New: %v", fr.addr, err)
	}
	if ln == nil {
		ln, err = net.Listen("tcp", fr.addr)
		if err != nil {
			srv.Close()
			t.Fatalf("replica %s: re-listen: %v", fr.addr, err)
		}
	}
	fr.srv = srv
	fr.hs = &http.Server{Handler: srv}
	go fr.hs.Serve(ln)
}

// stop kills the replica — listener, workers, prober — keeping its
// durable state on disk for a later restart.
func (fr *fleetReplica) stop() {
	fr.hs.Close()
	fr.srv.Close()
	fr.srv, fr.hs = nil, nil
}

// newFleet builds an n-replica fleet at the default replication factor
// (2): ports are allocated first so every replica can be configured
// with the complete static peer set.
func newFleet(t *testing.T, n int) []*fleetReplica {
	t.Helper()
	return newFleetR(t, n, 0)
}

// newFleetR is newFleet with an explicit replication factor
// (0 = server default; 1 = the single-owner fast-fail ring).
func newFleetR(t *testing.T, n, replication int) []*fleetReplica {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	reps := make([]*fleetReplica, n)
	for i := range reps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
		reps[i] = &fleetReplica{addr: peers[i], dir: t.TempDir(), replication: replication}
	}
	for i, fr := range reps {
		fr.peers = peers
		fr.start(t, lns[i])
	}
	t.Cleanup(func() {
		for _, fr := range reps {
			if fr.srv != nil {
				fr.stop()
			}
		}
	})
	return reps
}

// ownerOf splits a fleet by ownership of id: the owning replica and the
// others.
func ownerOf(t *testing.T, reps []*fleetReplica, id string) (owner *fleetReplica, others []*fleetReplica) {
	t.Helper()
	names := make([]string, len(reps))
	for i, fr := range reps {
		names[i] = cluster.Normalize(fr.addr)
	}
	want := cluster.Owner(names, id)
	for i, fr := range reps {
		if names[i] == want {
			owner = fr
		} else {
			others = append(others, fr)
		}
	}
	if owner == nil {
		t.Fatalf("no replica owns %s", id)
	}
	return owner, others
}

// ownersOf splits a fleet by top-k ownership of id: the owning replicas
// in rendezvous order, then the rest.
func ownersOf(t *testing.T, reps []*fleetReplica, id string, k int) (owners, others []*fleetReplica) {
	t.Helper()
	names := make([]string, len(reps))
	byName := make(map[string]*fleetReplica, len(reps))
	for i, fr := range reps {
		names[i] = cluster.Normalize(fr.addr)
		byName[names[i]] = fr
	}
	want := cluster.Owners(names, id, k)
	for _, n := range want {
		owners = append(owners, byName[n])
		delete(byName, n)
	}
	for _, n := range names {
		if fr, ok := byName[n]; ok {
			others = append(others, fr)
		}
	}
	if len(owners) != k {
		t.Fatalf("resolved %d owners of %s, want %d", len(owners), id, k)
	}
	return owners, others
}

// doReq performs one request and returns the drained response.
func doReq(t *testing.T, method, url string, hdr http.Header, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestClusterEndToEnd drives the headline fleet contract on three
// replicas at the default replication factor (2): a trace uploaded
// through any replica lands on exactly its K owners (the quorum ack
// plus the synchronous fan-out), and is fetchable byte-identically and
// analyzable — report byte-identical to a single-node memgazed —
// through every replica, with proxied repeats served from the
// replica-local result cache.
func TestClusterEndToEnd(t *testing.T) {
	reps := newFleet(t, 3)
	tr := testTrace(6, 40)
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	id, _ := tr.HashAndSize()
	owners, others := ownersOf(t, reps, id, 2)
	nonOwner := others[0]

	// The single-node reference for byte-identical answers.
	_, ref := newTestServer(t, Config{})
	uploadTrace(t, ref.URL, tr)
	refResp, refReport := postAnalyze(t, ref.URL, id, `{"analyses":["functions","mrc"]}`)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("reference analyze: %d: %s", refResp.StatusCode, refReport)
	}

	// Upload through the replica that does NOT own the hash.
	resp, body := doReq(t, http.MethodPost, nonOwner.url()+"/v1/traces",
		http.Header{"Content-Type": []string{ContentTypeTrace}}, enc)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("routed upload: %d: %s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/traces/"+id {
		t.Fatalf("routed upload Location = %q", loc)
	}

	// Both owners hold the bytes — with identical metadata, the ack's
	// upload time travelling on the fan-out — and the receiving replica
	// kept nothing.
	var uploadedAt []string
	for i, o := range owners {
		infos := o.srv.localInfos("")
		if len(infos) != 1 {
			t.Fatalf("owner %d corpus size = %d, want 1", i, len(infos))
		}
		uploadedAt = append(uploadedAt, infos[0].Uploaded.Format("2006-01-02T15:04:05.999999999"))
	}
	if uploadedAt[0] != uploadedAt[1] {
		t.Fatalf("owners disagree on the upload time: %s vs %s", uploadedAt[0], uploadedAt[1])
	}
	if got := len(nonOwner.srv.localInfos("")); got != 0 {
		t.Fatalf("non-owner kept %d traces after forwarding", got)
	}

	// Every replica serves the raw bytes and the identical report.
	for _, fr := range reps {
		resp, raw := doReq(t, http.MethodGet, fr.url()+"/v1/traces/"+id+"/raw", nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("raw via %s: %d: %s", fr.addr, resp.StatusCode, raw)
		}
		if !bytes.Equal(raw, enc) {
			t.Fatalf("raw via %s: %d bytes differ from the upload", fr.addr, len(raw))
		}
		aresp, rep := postAnalyze(t, fr.url(), id, `{"analyses":["functions","mrc"]}`)
		if aresp.StatusCode != http.StatusOK {
			t.Fatalf("analyze via %s: %d: %s", fr.addr, aresp.StatusCode, rep)
		}
		if !bytes.Equal(rep, refReport) {
			t.Fatalf("analyze via %s: report differs from single-node answer", fr.addr)
		}
	}

	// A proxied repeat is a replica-local cache hit: no second trip.
	warm, rep := postAnalyze(t, nonOwner.url(), id, `{"analyses":["functions","mrc"]}`)
	if warm.Header.Get("X-Memgazed-Cache") != "hit" {
		t.Error("repeated proxied analyze missed the local result cache")
	}
	if !bytes.Equal(rep, refReport) {
		t.Error("cached proxied report differs")
	}
	if got := nonOwner.srv.metrics.clusterProxied["analyze"].Load(); got == 0 {
		t.Error("proxied-analyze counter never moved")
	}

	// A fleet-internal request is never re-routed (loop prevention):
	// a peer-marked GET on a non-owner answers from its own empty
	// corpus, 404.
	resp, body = doReq(t, http.MethodGet, nonOwner.url()+"/v1/traces/"+id,
		http.Header{cluster.PeerHeader: []string{"http://tester"}}, nil)
	if resp.StatusCode != http.StatusNotFound || errCode(t, body) != ErrCodeTraceNotFound {
		t.Fatalf("internal-scoped get = %d %s, want local 404", resp.StatusCode, body)
	}

	// DELETE through the non-owner tombstones on every owner;
	// afterwards the whole fleet answers 410.
	resp, body = doReq(t, http.MethodDelete, nonOwner.url()+"/v1/traces/"+id, nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("routed delete: %d: %s", resp.StatusCode, body)
	}
	for i, o := range owners {
		if got := len(o.srv.localInfos("")); got != 0 {
			t.Fatalf("owner %d still lists %d live traces after the routed delete", i, got)
		}
	}
	for _, fr := range reps {
		resp, body := doReq(t, http.MethodGet, fr.url()+"/v1/traces/"+id, nil, nil)
		if resp.StatusCode != http.StatusGone || errCode(t, body) != ErrCodeTraceDeleted {
			t.Fatalf("get after routed delete via %s = %d %s", fr.addr, resp.StatusCode, body)
		}
	}
}

// TestClusterScatterList uploads through every replica and checks that
// GET /v1/traces merges the fleet's corpora into one id-ordered paged
// listing from any vantage point, with the ?tier filter applied fleet
// wide.
func TestClusterScatterList(t *testing.T) {
	reps := newFleet(t, 3)
	var ids []string
	for i := 0; i < 6; i++ {
		tr := testTrace(2, 10+i) // distinct content, distinct hash
		info := uploadTrace(t, reps[i%3].url(), tr)
		ids = append(ids, info.ID)
	}
	sort.Strings(ids)

	for _, fr := range reps {
		// Walk the cursor with a page size smaller than the corpus.
		var got []string
		after := ""
		for {
			u := fr.url() + "/v1/traces?limit=2"
			if after != "" {
				u += "&after=" + after
			}
			resp, body := doReq(t, http.MethodGet, u, nil, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("list via %s: %d: %s", fr.addr, resp.StatusCode, body)
			}
			var tl TraceList
			if err := json.Unmarshal(body, &tl); err != nil {
				t.Fatalf("list body: %v", err)
			}
			for _, info := range tl.Traces {
				got = append(got, info.ID)
			}
			if tl.Next == "" {
				break
			}
			after = tl.Next
		}
		if len(got) != len(ids) {
			t.Fatalf("list via %s saw %d traces, want %d (%v)", fr.addr, len(got), len(ids), got)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("list via %s out of order at %d: %s != %s", fr.addr, i, got[i], ids[i])
			}
		}

		// Fresh uploads are hot everywhere; the disk filter is empty.
		resp, body := doReq(t, http.MethodGet, fr.url()+"/v1/traces?tier=hot", nil, nil)
		var hot TraceList
		if err := json.Unmarshal(body, &hot); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("tier=hot via %s: %d %v", fr.addr, resp.StatusCode, err)
		}
		if len(hot.Traces) != len(ids) {
			t.Fatalf("tier=hot via %s: %d traces, want %d", fr.addr, len(hot.Traces), len(ids))
		}
		resp, body = doReq(t, http.MethodGet, fr.url()+"/v1/traces?tier=disk", nil, nil)
		var disk TraceList
		if err := json.Unmarshal(body, &disk); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("tier=disk via %s: %d %v", fr.addr, resp.StatusCode, err)
		}
		if len(disk.Traces) != 0 {
			t.Fatalf("tier=disk via %s: %d traces, want 0", fr.addr, len(disk.Traces))
		}
		resp, body = doReq(t, http.MethodGet, fr.url()+"/v1/traces?tier=warm", nil, nil)
		if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != ErrCodeInvalidRequest {
			t.Fatalf("tier=warm = %d %s, want 400 invalid_request", resp.StatusCode, body)
		}
	}
}

// TestClusterKillAndRejoinSingleOwner is the availability contract of
// the -replication=1 fast-fail ring (replicated failover has its own
// suite in replication_test.go): killing a non-owner leaves owned keys
// serving; killing the sole owner answers the structured 503
// peer_unavailable (while locally cached reports keep serving); a
// restarted owner rejoins via the prober and serves again with no
// client-side changes.
func TestClusterKillAndRejoinSingleOwner(t *testing.T) {
	reps := newFleetR(t, 3, 1)
	tr := testTrace(5, 30)
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	id, _ := tr.HashAndSize()
	owner, others := ownerOf(t, reps, id)
	vantage, bystander := others[0], others[1]

	uploadTrace(t, vantage.url(), tr)
	// Warm the vantage replica's local result cache through the proxy.
	if resp, body := postAnalyze(t, vantage.url(), id, `{"analyses":["mrc"]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm analyze: %d: %s", resp.StatusCode, body)
	}

	// Killing a replica that owns nothing here changes nothing.
	bystander.stop()
	resp, raw := doReq(t, http.MethodGet, vantage.url()+"/v1/traces/"+id+"/raw", nil, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(raw, enc) {
		t.Fatalf("raw with a dead non-owner: %d", resp.StatusCode)
	}

	// Killing the owner makes its keys unavailable — the structured
	// peer_unavailable envelope, not a hang or a wrong-replica miss.
	owner.stop()
	resp, body := doReq(t, http.MethodGet, vantage.url()+"/v1/traces/"+id+"/raw", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != ErrCodePeerUnavailable {
		t.Fatalf("raw with a dead owner = %d %s, want 503 peer_unavailable", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodDelete, vantage.url()+"/v1/traces/"+id, nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != ErrCodePeerUnavailable {
		t.Fatalf("delete with a dead owner = %d %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodGet, vantage.url()+"/v1/traces/"+id, nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != ErrCodePeerUnavailable {
		t.Fatalf("get with a dead owner = %d %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodPost, vantage.url()+"/v1/traces",
		http.Header{"Content-Type": []string{ContentTypeTrace}}, enc)
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != ErrCodePeerUnavailable {
		t.Fatalf("upload forward with a dead owner = %d %s", resp.StatusCode, body)
	}
	// The replica-local result cache outlives the owner: analyses this
	// replica already holds keep serving (content addressing keeps them
	// correct).
	aresp, rep := postAnalyze(t, vantage.url(), id, `{"analyses":["mrc"]}`)
	if aresp.StatusCode != http.StatusOK || aresp.Header.Get("X-Memgazed-Cache") != "hit" {
		t.Fatalf("cached analyze with dead owner = %d %s", aresp.StatusCode, rep)
	}
	// An analysis nobody cached cannot be served anywhere: 503.
	aresp, rep = postAnalyze(t, vantage.url(), id, `{"analyses":["functions"]}`)
	if aresp.StatusCode != http.StatusServiceUnavailable || errCode(t, rep) != ErrCodePeerUnavailable {
		t.Fatalf("uncached analyze with dead owner = %d %s", aresp.StatusCode, rep)
	}

	// Restart the owner on the same address and data directory: the
	// prober readmits it, the recovered corpus serves byte-identically.
	owner.start(t, nil)
	vantage.srv.cluster.ProbeNow()
	if !vantage.srv.cluster.Up(cluster.Normalize(owner.addr)) {
		t.Fatal("restarted owner not readmitted by the prober")
	}
	resp, raw = doReq(t, http.MethodGet, vantage.url()+"/v1/traces/"+id+"/raw", nil, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(raw, enc) {
		t.Fatalf("raw after owner rejoin = %d, %d bytes", resp.StatusCode, len(raw))
	}
}

// TestSingleNodeIsClusterOfOne pins that a memgazed with no Peers
// routes through a self-only ring: every keyed endpoint and the listing
// count as local requests, nothing is proxied or fanned out, and the
// ring holds exactly one peer — this replica, up.
func TestSingleNodeIsClusterOfOne(t *testing.T) {
	_, hs := newTestServer(t, Config{ProbeInterval: time.Millisecond})
	trA, trB := testTrace(4, 20), testTrace(3, 15)
	idA := uploadTrace(t, hs.URL, trA).ID
	encA, err := trA.Encode()
	if err != nil {
		t.Fatal(err)
	}
	encB, err := trB.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, infoB, body := streamPut(t, hs.URL, ContentTypeTrace, bytes.NewReader(encB))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("stream: %d: %s", resp.StatusCode, body)
	}
	for _, c := range []struct {
		method, path, body string
		status             int
	}{
		{http.MethodGet, "/v1/traces/" + idA, "", http.StatusOK},
		{http.MethodGet, "/v1/traces/" + idA + "/raw", "", http.StatusOK},
		{http.MethodPost, "/v1/traces/" + idA + "/analyze", `{"analyses":["mrc"]}`, http.StatusOK},
		{http.MethodPost, "/v1/diff", fmt.Sprintf(`{"a":%q,"b":%q,"analyses":["mrc"]}`, idA, infoB.ID), http.StatusOK},
		{http.MethodGet, "/v1/traces", "", http.StatusOK},
		{http.MethodDelete, "/v1/traces/" + idA, "", http.StatusNoContent},
	} {
		var rb []byte
		if c.body != "" {
			rb = []byte(c.body)
		}
		resp, body := doReq(t, c.method, hs.URL+c.path, nil, rb)
		if resp.StatusCode != c.status {
			t.Fatalf("%s %s = %d: %s", c.method, c.path, resp.StatusCode, body)
		}
		if strings.HasSuffix(c.path, "/raw") && !bytes.Equal(body, encA) {
			t.Fatalf("raw: %d bytes differ from the upload", len(body))
		}
	}

	_, metrics := doReq(t, http.MethodGet, hs.URL+"/metrics", nil, nil)
	out := string(metrics)
	for _, ep := range clusterEndpoints {
		for _, want := range []string{
			fmt.Sprintf("memgazed_cluster_local_requests_total{endpoint=%q} 1\n", ep),
			fmt.Sprintf("memgazed_cluster_proxied_requests_total{endpoint=%q} 0\n", ep),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("metrics lack %q", strings.TrimSpace(want))
			}
		}
	}
	for _, want := range []string{
		"memgazed_cluster_replication_fanout_total 0\n",
		"memgazed_cluster_replication_fanout_failures_total 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics lack %q", strings.TrimSpace(want))
		}
	}
	if n := strings.Count(out, "\nmemgazed_cluster_peer_up{"); n != 1 {
		t.Errorf("%d memgazed_cluster_peer_up lines, want exactly one (self)", n)
	}
	if !strings.Contains(out, `memgazed_cluster_peer_up{peer="http://localhost"} 1`) {
		t.Error("the self-only ring's peer is not up")
	}
}
