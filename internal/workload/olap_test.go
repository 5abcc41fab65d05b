package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func smallOlapConfig() OlapConfig {
	return OlapConfig{
		Chunks:             2400,
		Regions:            12,
		PopularityTheta:    0.9,
		Peers:              20,
		LocalFraction:      0.8,
		ChunksPerQueryMean: 4,
		QueriesPerHour:     30,
	}
}

func TestOlapConfigValidation(t *testing.T) {
	if err := DefaultOlapConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []OlapConfig{
		{},
		func() OlapConfig { c := smallOlapConfig(); c.Chunks = 2401; return c }(),
		func() OlapConfig { c := smallOlapConfig(); c.LocalFraction = -0.1; return c }(),
		func() OlapConfig { c := smallOlapConfig(); c.ChunksPerQueryMean = 0.5; return c }(),
		func() OlapConfig { c := smallOlapConfig(); c.QueriesPerHour = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestCubeMapping(t *testing.T) {
	c := NewCube(smallOlapConfig())
	if c.perRegion != 200 {
		t.Fatalf("chunks per region = %d", c.perRegion)
	}
	ch := c.Chunk(5, 7)
	if int(ch)/c.perRegion != 5 {
		t.Fatalf("region round trip failed for chunk %d", ch)
	}
}

func TestCubeChunkPanics(t *testing.T) {
	c := NewCube(smallOlapConfig())
	for _, bad := range [][2]int{{-1, 1}, {12, 1}, {0, 0}, {0, 201}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Chunk(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			c.Chunk(bad[0], bad[1])
		}()
	}
}

func TestCubeAssignRegions(t *testing.T) {
	c := NewCube(smallOlapConfig())
	got := c.AssignRegions(rng.New(1))
	if len(got) != 20 {
		t.Fatalf("assigned %d regions", len(got))
	}
	for _, v := range got {
		if v < 0 || v >= 12 {
			t.Fatalf("region %d out of range", v)
		}
	}
}

func TestOlapQueryDistinctChunks(t *testing.T) {
	c := NewCube(smallOlapConfig())
	s := rng.New(2)
	for i := 0; i < 2000; i++ {
		q := c.SampleQuery(s, 3)
		if len(q) == 0 {
			t.Fatal("empty query")
		}
		seen := map[ChunkID]bool{}
		for _, ch := range q {
			if seen[ch] {
				t.Fatalf("duplicate chunk in query: %v", q)
			}
			seen[ch] = true
		}
	}
}

func TestOlapQuerySingleRegion(t *testing.T) {
	// Every chunk of one query stays in one region (drill-down
	// locality).
	c := NewCube(smallOlapConfig())
	s := rng.New(3)
	for i := 0; i < 2000; i++ {
		q := c.SampleQuery(s, 3)
		region := int(q[0]) / c.perRegion
		for _, ch := range q[1:] {
			if int(ch)/c.perRegion != region {
				t.Fatalf("query spans regions: %v", q)
			}
		}
	}
}

func TestOlapQueryMeanSize(t *testing.T) {
	c := NewCube(smallOlapConfig())
	s := rng.New(4)
	total := 0
	const n = 20000
	for i := 0; i < n; i++ {
		total += len(c.SampleQuery(s, 0))
	}
	mean := float64(total) / n
	if math.Abs(mean-4) > 0.3 {
		t.Fatalf("mean query size %v, want ~4", mean)
	}
}

func TestOlapQueryLocalFraction(t *testing.T) {
	c := NewCube(smallOlapConfig())
	s := rng.New(5)
	local := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if int(c.SampleQuery(s, 7)[0])/c.perRegion == 7 {
			local++
		}
	}
	frac := float64(local) / n
	if math.Abs(frac-0.8) > 0.02 {
		t.Fatalf("local fraction %v, want ~0.8", frac)
	}
}

func TestQuickOlapQueriesInUniverse(t *testing.T) {
	f := func(seed uint64, region uint8) bool {
		c := NewCube(smallOlapConfig())
		s := rng.New(seed)
		for _, ch := range c.SampleQuery(s, int(region)%12) {
			if int(ch) < 0 || int(ch) >= 2400 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
