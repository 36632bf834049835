package resettest

import (
	"strings"
	"testing"
)

type inner struct{ v []int }

type outer struct {
	n     int
	s     []int
	m     map[int]*inner
	p     *inner
	free  []*inner
	self  *outer
	iface any
}

func TestDiff(t *testing.T) {
	base := func() *outer {
		o := &outer{n: 1, m: map[int]*inner{1: {v: []int{2}}}, p: &inner{}, iface: 3}
		o.self = o
		return o
	}
	cases := []struct {
		name   string
		mutate func(*outer)
		want   string // substring of the reported path; "" for equal
	}{
		{"equal", func(*outer) {}, ""},
		{"empty equals nil", func(o *outer) { o.s = make([]int, 0, 8) }, ""},
		{"skipped field", func(o *outer) { o.free = []*inner{{}} }, ""},
		{"int", func(o *outer) { o.n = 2 }, ".n"},
		{"slice length", func(o *outer) { o.s = []int{0} }, ".s"},
		{"map value", func(o *outer) { o.m[1].v[0] = 9 }, ".m[1].v[0]"},
		{"map key", func(o *outer) { o.m = map[int]*inner{2: {}} }, ".m[1]"},
		{"nil pointer", func(o *outer) { o.p = nil }, ".p"},
		{"interface", func(o *outer) { o.iface = "x" }, ".iface"},
	}
	for _, c := range cases {
		o := base()
		c.mutate(o)
		got := Diff(base(), o, "free")
		if (got == "") != (c.want == "") || !strings.Contains(got, c.want) {
			t.Errorf("%s: Diff = %q, want a difference at %q", c.name, got, c.want)
		}
	}
}
