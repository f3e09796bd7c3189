package engine

import (
	"reflect"
	"testing"
)

// TestReportFieldGroups pins the analysis → Report fields table that
// memgazed's fragment cache assembles reports from: every Report field
// belongs to exactly one analysis group or to the identity header, the
// groups in suite order list the fields in declaration order, and every
// group field marshals its zero value as null (a slice or a pointer),
// which is what an unrequested analysis leaves behind.
func TestReportFieldGroups(t *testing.T) {
	var listed []string
	listed = append(listed, IdentityFields...)
	owner := map[string]string{}
	for _, name := range IdentityFields {
		owner[name] = "identity"
	}
	for _, a := range AllAnalyses() {
		if len(a.Fields()) == 0 {
			t.Errorf("analysis %s fills no Report field", a)
		}
		for _, name := range a.Fields() {
			if prev, ok := owner[name]; ok {
				t.Errorf("field %s belongs to both %s and %s", name, prev, a)
			}
			owner[name] = a.String()
			listed = append(listed, name)
		}
	}

	rt := reflect.TypeOf(Report{})
	var declared []string
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		declared = append(declared, f.Name)
		if f.Tag != "" {
			t.Errorf("field %s has a struct tag %q; assembly writes bare field names", f.Name, f.Tag)
		}
		if owner[f.Name] == "identity" {
			continue
		}
		if k := f.Type.Kind(); k != reflect.Slice && k != reflect.Pointer {
			t.Errorf("field %s is a %s; its zero value must marshal as null", f.Name, k)
		}
	}
	if !reflect.DeepEqual(listed, declared) {
		t.Errorf("identity + groups in suite order = %v,\nReport declares %v", listed, declared)
	}
}
