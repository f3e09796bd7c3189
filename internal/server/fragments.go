package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"

	"github.com/memgaze/memgaze-go/internal/diff"
	"github.com/memgaze/memgaze-go/internal/engine"
)

// This file turns Report JSON into analysis fragments and back. A
// Report's JSON is its identity fields followed by each analysis's
// field group in suite order (engine.IdentityFields,
// engine.Analysis.Fields), Report has no JSON tags or omitempty, and
// each field's value depends only on its own analysis and the request
// parameters. So the JSON of any run is the identity, then for each
// analysis either its fragment's cached texts or nulls — assembled
// byte-identical to json.Marshal without marshalling anything.

// allAnalyses is every analysis in suite order.
var allAnalyses = engine.AllAnalyses()

// identityKeys[i] is what is written before identity field i:
// `{"Module":`, then `,"Samples":` and so on. fieldKeys[a][i] is the key
// written before analysis a's i-th field, and nullGroups[a] is a's
// whole group as the nulls of an analysis nobody asked for. They are
// bytes, not strings, so writing them to any io.Writer allocates
// nothing.
var identityKeys, fieldKeys, nullGroups = func() ([][]byte, [][][]byte, [][]byte) {
	ids := make([][]byte, len(engine.IdentityFields))
	for i, name := range engine.IdentityFields {
		ids[i] = []byte(`,"` + name + `":`)
	}
	ids[0][0] = '{'
	keys := make([][][]byte, len(allAnalyses))
	nulls := make([][]byte, len(allAnalyses))
	for _, a := range allAnalyses {
		for _, name := range a.Fields() {
			key := []byte(`,"` + name + `":`)
			keys[a] = append(keys[a], key)
			nulls[a] = append(append(nulls[a], key...), "null"...)
		}
	}
	return ids, keys, nulls
}()

var closeBrace = []byte("}")

// fragmentOf cuts analysis a's fragment from a Report split into one
// text per top-level field: the identity texts, then a's own.
func fragmentOf(members map[string]json.RawMessage, a engine.Analysis) (fragment, error) {
	f := make(fragment, 0, len(engine.IdentityFields)+len(a.Fields()))
	for _, names := range [][]string{engine.IdentityFields, a.Fields()} {
		for _, name := range names {
			m, ok := members[name]
			if !ok {
				return nil, fmt.Errorf("no field %s", name)
			}
			f = append(f, m)
		}
	}
	return f, nil
}

// reportMembers marshals the identity and kinds' fields of rep, each on
// its own: the split form of json.Marshal(rep), since a field marshals
// to the same bytes alone as inside the struct.
func reportMembers(rep *engine.Report, kinds []engine.Analysis) (map[string]json.RawMessage, error) {
	v := reflect.ValueOf(rep).Elem()
	members := make(map[string]json.RawMessage)
	marshal := func(names []string) error {
		for _, name := range names {
			b, err := json.Marshal(v.FieldByName(name).Interface())
			if err != nil {
				return fmt.Errorf("marshalling %s: %w", name, err)
			}
			members[name] = b
		}
		return nil
	}
	if err := marshal(engine.IdentityFields); err != nil {
		return nil, err
	}
	for _, a := range kinds {
		if err := marshal(a.Fields()); err != nil {
			return nil, err
		}
	}
	return members, nil
}

// writeReport writes the Report JSON of a run of kinds (suite order, no
// repeats) straight to w, frags[i] being kinds[i]'s fragment. Every
// fragment of one trace carries the same identity, so the first one's
// is written.
func writeReport(w io.Writer, kinds []engine.Analysis, frags []fragment) {
	for i, key := range identityKeys {
		w.Write(key)
		w.Write(frags[0][i])
	}
	j := 0
	for _, a := range allAnalyses {
		if j == len(kinds) || kinds[j] != a {
			w.Write(nullGroups[a])
			continue
		}
		for i, key := range fieldKeys[a] {
			w.Write(key)
			w.Write(frags[j][len(identityKeys)+i])
		}
		j++
	}
	w.Write(closeBrace)
}

// diffSide decodes one diff side from its fragments: the identity and
// only the fields diff.Diff reads (diff.ReportFields), so the interval
// tree, the zoom tree and every other field stay undecoded.
func diffSide(kinds []engine.Analysis, frags []fragment) (*engine.Report, error) {
	var buf bytes.Buffer
	for i, key := range identityKeys {
		buf.Write(key)
		buf.Write(frags[0][i])
	}
	for j, a := range kinds {
		for i, name := range a.Fields() {
			if slices.Contains(diff.ReportFields, name) {
				buf.Write(fieldKeys[a][i])
				buf.Write(frags[j][len(identityKeys)+i])
			}
		}
	}
	buf.WriteByte('}')
	var rep engine.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}
