package obs

import "testing"

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Add("trap", 1287)
	b.Add("io", 2400)
	b.Add("trap", 1287)
	if b.Get("trap") != 2574 || b.Count("trap") != 2 {
		t.Fatalf("trap = %d/%d", b.Get("trap"), b.Count("trap"))
	}
	if b.Total() != 2574+2400 {
		t.Fatalf("total = %d", b.Total())
	}
	if got := b.PerOp("trap", 2); got != 1287 {
		t.Fatalf("per-op = %v", got)
	}
	cats := b.Categories()
	if len(cats) != 2 || cats[0] != "trap" || cats[1] != "io" {
		t.Fatalf("categories = %v (want first-use order)", cats)
	}
}

func TestBreakdownMerge(t *testing.T) {
	a, b := NewBreakdown(), NewBreakdown()
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Fatalf("merged: x=%d y=%d", a.Get("x"), a.Get("y"))
	}
}

func TestBreakdownTableRenders(t *testing.T) {
	b := NewBreakdown()
	b.Add("alpha", 100)
	s := b.Table(1)
	if s == "" {
		t.Fatal("empty table")
	}
}
