package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"testing"

	"github.com/memgaze/memgaze-go/internal/cluster"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// prevID is a ?after cursor strictly before id (its own prefix), so a
// single-id page lookup can start just under it.
func prevID(id string) string { return id[:len(id)-1] }

// hasLocal reports whether the replica's own corpus lists id live.
func hasLocal(fr *fleetReplica, id string) bool {
	for _, in := range fr.srv.localInfos("") {
		if in.ID == id {
			return true
		}
	}
	return false
}

// probeAll refreshes every live replica's membership view — the
// deterministic stand-in for the background prober the test fleet
// disables.
func probeAll(reps []*fleetReplica) {
	for _, fr := range reps {
		if fr.srv != nil {
			fr.srv.cluster.ProbeNow()
		}
	}
}

// TestClusterReplicatedFailover is the headline chaos contract of
// replicated ownership: on a 3-replica fleet at replication 2, killing
// ANY single peer leaves every raw, get, analyze, and diff request
// answering 200 — byte-identical to a single-node memgazed — from
// every surviving vantage, uploads keep landing durably, and a
// rejoined peer is repaired without a restart.
func TestClusterReplicatedFailover(t *testing.T) {
	reps := newFleet(t, 3) // default replication: 2
	trA, trB := testTrace(5, 30), testTrace(4, 25)
	encA, err := trA.Encode()
	if err != nil {
		t.Fatal(err)
	}
	idA, _ := trA.HashAndSize()
	idB, _ := trB.HashAndSize()

	// Single-node reference answers for byte-identical comparison.
	_, ref := newTestServer(t, Config{})
	uploadTrace(t, ref.URL, trA)
	uploadTrace(t, ref.URL, trB)
	aresp, refReport := postAnalyze(t, ref.URL, idA, `{"analyses":["mrc"]}`)
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("reference analyze: %d: %s", aresp.StatusCode, refReport)
	}
	diffBody := fmt.Sprintf(`{"a":%q,"b":%q,"analyses":["mrc"]}`, idA, idB)
	dresp, refDiff := postDiff(t, ref.URL, diffBody)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("reference diff: %d: %s", dresp.StatusCode, refDiff)
	}

	uploadTrace(t, reps[0].url(), trA)
	uploadTrace(t, reps[1].url(), trB)

	for k, victim := range reps {
		victim.stop()
		var survivors []*fleetReplica
		for _, fr := range reps {
			if fr != victim {
				survivors = append(survivors, fr)
			}
		}
		probeAll(survivors)

		for _, vantage := range survivors {
			resp, raw := doReq(t, http.MethodGet, vantage.url()+"/v1/traces/"+idA+"/raw", nil, nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(raw, encA) {
				t.Fatalf("kill %d: raw via %s = %d (%d bytes)", k, vantage.addr, resp.StatusCode, len(raw))
			}
			resp, _ = doReq(t, http.MethodGet, vantage.url()+"/v1/traces/"+idA+"/raw",
				http.Header{"If-None-Match": []string{`"` + idA + `"`}}, nil)
			if resp.StatusCode != http.StatusNotModified {
				t.Fatalf("kill %d: conditional raw via %s = %d, want 304", k, vantage.addr, resp.StatusCode)
			}
			resp, body := doReq(t, http.MethodGet, vantage.url()+"/v1/traces/"+idA, nil, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("kill %d: get via %s = %d: %s", k, vantage.addr, resp.StatusCode, body)
			}
			var info TraceInfo
			if err := json.Unmarshal(body, &info); err != nil || info.ID != idA {
				t.Fatalf("kill %d: get via %s answered %q (%v)", k, vantage.addr, body, err)
			}
			aresp, rep := postAnalyze(t, vantage.url(), idA, `{"analyses":["mrc"]}`)
			if aresp.StatusCode != http.StatusOK {
				t.Fatalf("kill %d: analyze via %s = %d: %s", k, vantage.addr, aresp.StatusCode, rep)
			}
			if !bytes.Equal(rep, refReport) {
				t.Fatalf("kill %d: analyze via %s differs from the single-node report", k, vantage.addr)
			}
			dresp, drep := postDiff(t, vantage.url(), diffBody)
			if dresp.StatusCode != http.StatusOK {
				t.Fatalf("kill %d: diff via %s = %d: %s", k, vantage.addr, dresp.StatusCode, drep)
			}
			if !bytes.Equal(drep, refDiff) {
				t.Fatalf("kill %d: diff via %s differs from the single-node diff", k, vantage.addr)
			}
		}

		// Uploads keep landing while the peer is dead: quorum is the
		// first live owner's durable ack.
		trC := testTrace(3, 12+k) // distinct content per round
		idC, _ := trC.HashAndSize()
		info := uploadTrace(t, survivors[0].url(), trC)
		if info.ID != idC {
			t.Fatalf("kill %d: upload answered id %s, want %s", k, info.ID, idC)
		}
		for _, vantage := range survivors {
			resp, _ := doReq(t, http.MethodGet, vantage.url()+"/v1/traces/"+idC+"/raw", nil, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("kill %d: fresh upload unreadable via %s: %d", k, vantage.addr, resp.StatusCode)
			}
		}

		// Rejoin on the same address and data dir; repair re-replicates
		// whatever the dead window left under-replicated.
		victim.start(t, nil)
		probeAll(reps)
		for _, fr := range reps {
			fr.srv.repairNow()
		}
		for _, id := range []string{idA, idB, idC} {
			owners, _ := ownersOf(t, reps, id, 2)
			for i, o := range owners {
				if !hasLocal(o, id) {
					t.Fatalf("kill %d: owner %d of %s not repaired after rejoin", k, i, id)
				}
			}
		}
		for _, fr := range reps {
			if st := fr.srv.repairNow(); st.underReplicated != 0 {
				t.Fatalf("kill %d: replica %s still sees %d under-replicated ids after repair", k, fr.addr, st.underReplicated)
			}
			if got := fr.srv.metrics.replUnderReplicated.Load(); got != 0 {
				t.Fatalf("kill %d: replica %s underreplicated gauge = %d after repair", k, fr.addr, got)
			}
		}
	}
}

// TestClusterUploadFanout pins the write path mechanics: a routed
// upload's synchronous fan-out places the copy on every owner and the
// fan-out counter moves on the replica that performed it.
func TestClusterUploadFanout(t *testing.T) {
	reps := newFleet(t, 3)
	tr := testTrace(4, 20)
	id, _ := tr.HashAndSize()
	owners, others := ownersOf(t, reps, id, 2)
	nonOwner := others[0]

	uploadTrace(t, nonOwner.url(), tr)
	for i, o := range owners {
		if !hasLocal(o, id) {
			t.Fatalf("owner %d missing the copy after the fan-out", i)
		}
	}
	if hasLocal(nonOwner, id) {
		t.Fatal("non-owner kept a copy")
	}
	if got := nonOwner.srv.metrics.replFanout.Load(); got == 0 {
		t.Error("fan-out counter never moved on the forwarding replica")
	}
	if got := nonOwner.srv.metrics.replFanoutFailures.Load(); got != 0 {
		t.Errorf("fan-out failures = %d with every owner up", got)
	}

	// A second identical upload through an owner dedups everywhere and
	// answers 200 with the original upload time.
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := doReq(t, http.MethodPost, owners[0].url()+"/v1/traces",
		http.Header{"Content-Type": []string{ContentTypeTrace}}, enc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate upload = %d: %s", resp.StatusCode, body)
	}
	var dup TraceInfo
	if err := json.Unmarshal(body, &dup); err != nil || !dup.Existed {
		t.Fatalf("duplicate upload answered %q (%v)", body, err)
	}
}

// TestUploadEncodeOnceAcrossReplicas pins that both upload paths ship
// one canonical encoding to every owner at replication 2: a streamed PT
// upload at a non-owner (decoded there, forwarded, fanned out) and a
// buffered legacy-v2 upload at an owner (stored, fanned out) each leave
// the same bytes on both owners — the bytes a local Encode produces,
// not the body as sent.
func TestUploadEncodeOnceAcrossReplicas(t *testing.T) {
	reps := newFleet(t, 3)
	capture, streamedTr, _ := streamCapture(t, 5000)
	buffered := testTrace(4, 20)
	legacy, err := buffered.EncodeLegacy(2)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name   string
		tr     *trace.Trace
		upload func(owners, others []*fleetReplica) (*http.Response, []byte)
	}{
		{"streamed at non-owner", streamedTr, func(_, others []*fleetReplica) (*http.Response, []byte) {
			resp, _, b := streamPut(t, others[0].url(), ContentTypePT, bytes.NewReader(capture))
			return resp, b
		}},
		{"buffered at owner", buffered, func(owners, _ []*fleetReplica) (*http.Response, []byte) {
			return doReq(t, http.MethodPost, owners[1].url()+"/v1/traces",
				http.Header{"Content-Type": []string{ContentTypeTrace}}, legacy)
		}},
	} {
		want, err := c.tr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		id := c.tr.Hash()
		owners, others := ownersOf(t, reps, id, 2)
		if resp, b := c.upload(owners, others); resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, b)
		}
		for i, o := range owners {
			// The peer header pins the read to o's own corpus.
			resp, raw := doReq(t, http.MethodGet, o.url()+"/v1/traces/"+id+"/raw",
				http.Header{cluster.PeerHeader: []string{"http://tester"}}, nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(raw, want) {
				t.Errorf("%s: owner %d raw = %d, %d bytes; want the %d-byte local encoding",
					c.name, i, resp.StatusCode, len(raw), len(want))
			}
		}
		if hasLocal(others[0], id) {
			t.Errorf("%s: non-owner kept a copy", c.name)
		}
	}
}

// TestScatterListDedupPrefersHot pins the replicated listing contract:
// every id appears once even though K owners list it, the surviving
// entry prefers the hot tier when any owner's copy is hot, and the
// ?after/?limit cursor walk stays exact across the fleet.
func TestScatterListDedupPrefersHot(t *testing.T) {
	reps := newFleet(t, 3)
	var ids []string
	for i := 0; i < 5; i++ {
		tr := testTrace(2, 10+i)
		info := uploadTrace(t, reps[i%3].url(), tr)
		ids = append(ids, info.ID)
	}

	// Demote one owner's copy of ids[0] to disk-only; the other owner's
	// stays hot, and the merged listing must surface the hot one.
	owners, _ := ownersOf(t, reps, ids[0], 2)
	owners[0].srv.store.Delete(ids[0])
	tierOf := func(vantage *fleetReplica, id string) string {
		resp, body := doReq(t, http.MethodGet, vantage.url()+"/v1/traces?after="+prevID(id), nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list via %s: %d: %s", vantage.addr, resp.StatusCode, body)
		}
		var tl TraceList
		if err := json.Unmarshal(body, &tl); err != nil {
			t.Fatal(err)
		}
		for _, in := range tl.Traces {
			if in.ID == id {
				return in.Tier
			}
		}
		t.Fatalf("id %s missing from the listing via %s", id, vantage.addr)
		return ""
	}
	for _, vantage := range reps {
		if tier := tierOf(vantage, ids[0]); tier != tierHot {
			t.Fatalf("one hot copy left, but %s lists tier %q", vantage.addr, tier)
		}
	}
	// Demote the second owner's copy too: now disk is the truth.
	owners[1].srv.store.Delete(ids[0])
	for _, vantage := range reps {
		if tier := tierOf(vantage, ids[0]); tier != tierDisk {
			t.Fatalf("no hot copies left, but %s lists tier %q", vantage.addr, tier)
		}
	}

	// The limit=1 cursor walk sees every id exactly once from every
	// vantage, replicas notwithstanding.
	want := append([]string(nil), ids...)
	sort.Strings(want)
	for _, vantage := range reps {
		var got []string
		after := ""
		for {
			u := vantage.url() + "/v1/traces?limit=1"
			if after != "" {
				u += "&after=" + after
			}
			resp, body := doReq(t, http.MethodGet, u, nil, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cursor walk via %s: %d: %s", vantage.addr, resp.StatusCode, body)
			}
			var tl TraceList
			if err := json.Unmarshal(body, &tl); err != nil {
				t.Fatal(err)
			}
			if len(tl.Traces) > 1 {
				t.Fatalf("limit=1 page holds %d entries", len(tl.Traces))
			}
			for _, in := range tl.Traces {
				got = append(got, in.ID)
			}
			if tl.Next == "" {
				break
			}
			after = tl.Next
		}
		if len(got) != len(want) {
			t.Fatalf("cursor walk via %s saw %d ids, want %d: %v", vantage.addr, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cursor walk via %s out of order at %d: %s != %s", vantage.addr, i, got[i], want[i])
			}
		}
	}
}

// TestOwnerWalkFirstOwnerStates pins the one owner failover walk that
// get, raw, analyze, and the upload forward share, on a 3-replica fleet
// at replication 2, for each state of a key's first owner: it lacks the
// copy (404: walk on), it is down but still believed live (transport
// failure: walk on), or it holds a tombstone (410: the answer). Every
// request goes through the non-owner, whose walk starts at the first
// owner. When every owner answers 404 the fleet's answer is 404.
func TestOwnerWalkFirstOwnerStates(t *testing.T) {
	tr := testTrace(5, 30)
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	id := tr.Hash()
	_, ref := newTestServer(t, Config{})
	uploadTrace(t, ref.URL, tr)
	resp, refReport := postAnalyze(t, ref.URL, id, `{"analyses":["mrc"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference analyze: %d: %s", resp.StatusCode, refReport)
	}
	conditional := http.Header{"If-None-Match": []string{`"` + id + `"`}}

	for _, c := range []struct {
		name string
		// setup leaves the trace on the second owner and puts the first
		// in the case's state.
		setup func(t *testing.T, reps []*fleetReplica, first, vantage *fleetReplica)
		// status is the get/raw/analyze answer, code its error code;
		// notModified is the conditional raw answer.
		status      int
		code        string
		notModified int
		// upload is the answer to re-uploading the trace, and holder the
		// owner that must have acked it: 0 first, 1 second.
		upload int
		holder int
	}{
		{"first owner lacks the copy", func(t *testing.T, reps []*fleetReplica, first, vantage *fleetReplica) {
			first.stop()
			uploadTrace(t, vantage.url(), tr) // the walk skips the dead first owner
			first.start(t, nil)
			probeAll(reps)
			if hasLocal(first, id) {
				t.Fatal("first owner holds the copy it was down for")
			}
		}, http.StatusOK, "", http.StatusNotModified, http.StatusCreated, 0},
		{"first owner down", func(t *testing.T, reps []*fleetReplica, first, vantage *fleetReplica) {
			uploadTrace(t, vantage.url(), tr)
			first.stop() // no probe: the vantage still believes it live
		}, http.StatusOK, "", http.StatusNotModified, http.StatusOK, 1},
		{"first owner tombstoned", func(t *testing.T, reps []*fleetReplica, first, vantage *fleetReplica) {
			uploadTrace(t, vantage.url(), tr)
			resp, body := doReq(t, http.MethodDelete, first.url()+"/v1/traces/"+id,
				http.Header{cluster.PeerHeader: []string{"http://tester"}}, nil)
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("tombstoning the first owner: %d: %s", resp.StatusCode, body)
			}
		}, http.StatusGone, ErrCodeTraceDeleted, http.StatusGone, http.StatusCreated, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			reps := newFleet(t, 3)
			owners, others := ownersOf(t, reps, id, 2)
			vantage := others[0]
			c.setup(t, reps, owners[0], vantage)

			check := func(what string, resp *http.Response, body []byte, status int) {
				t.Helper()
				if resp.StatusCode != status {
					t.Fatalf("%s = %d, want %d: %s", what, resp.StatusCode, status, body)
				}
				if status >= 400 && errCode(t, body) != c.code {
					t.Fatalf("%s code = %q, want %q", what, errCode(t, body), c.code)
				}
			}
			resp, body := doReq(t, http.MethodGet, vantage.url()+"/v1/traces/"+id, nil, nil)
			check("get", resp, body, c.status)
			resp, body = doReq(t, http.MethodGet, vantage.url()+"/v1/traces/"+id+"/raw", nil, nil)
			check("raw", resp, body, c.status)
			if c.status == http.StatusOK && !bytes.Equal(body, enc) {
				t.Fatalf("raw: %d bytes differ from the upload", len(body))
			}
			resp, body = doReq(t, http.MethodGet, vantage.url()+"/v1/traces/"+id+"/raw", conditional, nil)
			check("conditional raw", resp, body, c.notModified)
			resp, body = postAnalyze(t, vantage.url(), id, `{"analyses":["mrc"]}`)
			check("analyze", resp, body, c.status)
			if c.status == http.StatusOK && !bytes.Equal(body, refReport) {
				t.Fatal("analyze differs from the single-node report")
			}

			resp, body = doReq(t, http.MethodPost, vantage.url()+"/v1/traces",
				http.Header{"Content-Type": []string{ContentTypeTrace}}, enc)
			if resp.StatusCode != c.upload {
				t.Fatalf("upload forward = %d, want %d: %s", resp.StatusCode, c.upload, body)
			}
			if !hasLocal(owners[c.holder], id) {
				t.Fatalf("owner %d did not ack the forwarded upload", c.holder)
			}
			resp, body = doReq(t, http.MethodGet, vantage.url()+"/v1/traces/"+id+"/raw", nil, nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, enc) {
				t.Fatalf("raw after the upload forward = %d, %d bytes", resp.StatusCode, len(body))
			}
		})
	}

	// A key no owner holds: every owner answers 404, and so does every
	// vantage — a non-owner after walking both owners, an owner after
	// asking the other.
	t.Run("every owner lacks the key", func(t *testing.T) {
		reps := newFleet(t, 3)
		for _, fr := range reps {
			for _, path := range []string{"/v1/traces/" + id, "/v1/traces/" + id + "/raw"} {
				resp, body := doReq(t, http.MethodGet, fr.url()+path, nil, nil)
				if resp.StatusCode != http.StatusNotFound || errCode(t, body) != ErrCodeTraceNotFound {
					t.Fatalf("GET %s via %s = %d %s", path, fr.addr, resp.StatusCode, body)
				}
			}
			resp, body := postAnalyze(t, fr.url(), id, `{"analyses":["mrc"]}`)
			if resp.StatusCode != http.StatusNotFound || errCode(t, body) != ErrCodeTraceNotFound {
				t.Fatalf("analyze via %s = %d %s", fr.addr, resp.StatusCode, body)
			}
		}
	})
}
