package main

import (
	"strings"
	"testing"
)

func TestTracerSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Start: 0, End: 100, Parent: -1, Op: 1},
		{Name: "child", Start: 10, End: 40, Parent: 0, Op: 1},
		{Name: "child", Start: 50, End: 90, Parent: 0, Op: 1},
		{Name: "leaf", Start: 55, End: 60, Parent: 2, Op: 1},
		{Name: "root", Start: 200, End: 230, Parent: -1, Op: 2},
	}}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	self := tr.selfTimes(0)
	// root: 100-30-40 plus 30; child: 30 plus 40-5; leaf: 5.
	if self["root"] != 60 || self["child"] != 65 || self["leaf"] != 5 {
		t.Errorf("self times %v", self)
	}
	if later := tr.selfTimes(4); later["root"] != 30 || len(later) != 1 {
		t.Errorf("self times from span 4: %v", later)
	}
}

func TestTracerCheckRejects(t *testing.T) {
	cases := map[string][]span{
		"never ended":         {{Name: "a", Start: 5, End: -1, Parent: -1, Op: 1}},
		"[5,11] lies outside": {{Name: "p", Start: 0, End: 10, Parent: -1, Op: 1}, {Name: "c", Start: 5, End: 11, Parent: 0, Op: 1}},
		"[4,8] lies outside":  {{Name: "p", Start: 5, End: 10, Parent: -1, Op: 1}, {Name: "c", Start: 4, End: 8, Parent: 0, Op: 1}},
		"not an earlier":      {{Name: "c", Start: 0, End: 1, Parent: 1, Op: 1}, {Name: "p", Start: 0, End: 2, Parent: -1, Op: 1}},
		"operation":           {{Name: "p", Start: 0, End: 10, Parent: -1, Op: 1}, {Name: "c", Start: 1, End: 2, Parent: 0, Op: 2}},
	}
	for name, spans := range cases {
		err := (&tracer{spans: spans}).check()
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: check returned %v", name, err)
		}
	}
}
