package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func smallWebConfig() WebConfig {
	return WebConfig{
		Pages:           2000,
		Interests:       10,
		PopularityTheta: 0.9,
		Proxies:         30,
		LocalFraction:   0.7,
		RequestsPerHour: 100,
	}
}

func TestWebConfigValidation(t *testing.T) {
	if err := DefaultWebConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []WebConfig{
		{},
		func() WebConfig { c := smallWebConfig(); c.Pages = 2001; return c }(), // not divisible
		func() WebConfig { c := smallWebConfig(); c.LocalFraction = 1.5; return c }(),
		func() WebConfig { c := smallWebConfig(); c.RequestsPerHour = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestWebSpaceMapping(t *testing.T) {
	w := NewWebSpace(smallWebConfig())
	if w.perInterest != 200 {
		t.Fatalf("pages per interest = %d", w.perInterest)
	}
	p := w.Page(3, 1)
	if int(p)/w.perInterest != 3 {
		t.Fatalf("interest round trip failed for page %d", p)
	}
	if w.Page(0, 1) != 0 || w.Page(9, 200) != 1999 {
		t.Fatal("corner pages wrong")
	}
}

func TestWebSpacePagePanics(t *testing.T) {
	w := NewWebSpace(smallWebConfig())
	for _, bad := range [][2]int{{-1, 1}, {10, 1}, {0, 0}, {0, 201}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Page(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			w.Page(bad[0], bad[1])
		}()
	}
}

func TestWebAssignInterestsInRange(t *testing.T) {
	w := NewWebSpace(smallWebConfig())
	got := w.AssignInterests(rng.New(1))
	if len(got) != 30 {
		t.Fatalf("assigned %d interests", len(got))
	}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("interest %d out of range", v)
		}
	}
}

func TestWebSampleRequestLocalFraction(t *testing.T) {
	w := NewWebSpace(smallWebConfig())
	s := rng.New(2)
	local := 0
	const n = 40000
	for i := 0; i < n; i++ {
		if int(w.SampleRequest(s, 4))/w.perInterest == 4 {
			local++
		}
	}
	frac := float64(local) / n
	// Local requests plus 1/9 of the remote mass landing back on 4 is
	// impossible (remote excludes own interest), so frac ≈ 0.7 exactly.
	if math.Abs(frac-0.7) > 0.02 {
		t.Fatalf("local fraction %v, want ~0.7", frac)
	}
}

func TestWebSampleRequestRemoteExcludesOwn(t *testing.T) {
	cfg := smallWebConfig()
	cfg.LocalFraction = 0 // every request is remote
	w := NewWebSpace(cfg)
	s := rng.New(3)
	for i := 0; i < 5000; i++ {
		if int(w.SampleRequest(s, 4))/w.perInterest == 4 {
			t.Fatal("remote request landed on own interest")
		}
	}
}

func TestQuickWebRequestsInUniverse(t *testing.T) {
	f := func(seed uint64, interest uint8) bool {
		w := NewWebSpace(smallWebConfig())
		s := rng.New(seed)
		p := w.SampleRequest(s, int(interest)%10)
		return int(p) >= 0 && int(p) < 2000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
