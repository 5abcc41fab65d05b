package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// smallConfig is a fast, valid configuration for unit tests.
func smallConfig() MusicConfig {
	return MusicConfig{
		Songs:             5000,
		Categories:        50,
		PopularityTheta:   0.9,
		UserCategoryTheta: 0.9,
		Users:             200,
		LibraryMean:       40,
		LibraryStd:        10,
		FavoriteFraction:  0.5,
		OtherCategories:   5,
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultMusicConfig()
	if c.Songs != 200000 || c.Categories != 50 || c.Users != 2000 {
		t.Fatalf("default config drifted: %+v", c)
	}
	if c.PopularityTheta != 0.9 || c.UserCategoryTheta != 0.9 {
		t.Fatalf("zipf parameters drifted: %+v", c)
	}
	if c.LibraryMean != 200 || c.LibraryStd != 50 {
		t.Fatalf("library parameters drifted: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []MusicConfig{
		{},
		{Songs: 100, Categories: 7, Users: 10, LibraryMean: 10, OtherCategories: 2}, // not divisible
		func() MusicConfig { c := smallConfig(); c.OtherCategories = 50; return c }(),
		func() MusicConfig { c := smallConfig(); c.LibraryMean = 0; return c }(),
		func() MusicConfig { c := smallConfig(); c.FavoriteFraction = 1.5; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d accepted: %+v", i, c)
		}
	}
}

func TestScaled(t *testing.T) {
	c := DefaultMusicConfig().Scaled(10)
	if c.Users != 200 || c.Songs != 20000 {
		t.Fatalf("scaled config: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := DefaultMusicConfig().Scaled(1); got.Users != 2000 {
		t.Fatal("Scaled(1) must be identity")
	}
}

func TestCatalogSongMapping(t *testing.T) {
	cat := NewCatalog(smallConfig())
	if cat.perCat != 100 {
		t.Fatalf("songs per category = %d", cat.perCat)
	}
	s := cat.Song(3, 1)
	if int(s)/cat.perCat != 3 {
		t.Fatalf("category round trip failed: song %d -> cat %d", s, int(s)/cat.perCat)
	}
	if cat.Song(0, 1) != 0 {
		t.Fatal("first song must be ID 0")
	}
	if cat.Song(49, 100) != 4999 {
		t.Fatal("last song must be ID 4999")
	}
}

func TestCatalogSongPanicsOutOfRange(t *testing.T) {
	cat := NewCatalog(smallConfig())
	for _, bad := range [][2]int{{-1, 1}, {50, 1}, {0, 0}, {0, 101}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Song(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			cat.Song(bad[0], bad[1])
		}()
	}
}

func TestSampleSongRespectsCategory(t *testing.T) {
	cat := NewCatalog(smallConfig())
	s := rng.New(1)
	for i := 0; i < 1000; i++ {
		song := cat.SampleSong(s, 7)
		if int(song)/cat.perCat != 7 {
			t.Fatalf("sampled song %d in category %d", song, int(song)/cat.perCat)
		}
	}
}

func TestSampleSongIsSkewed(t *testing.T) {
	cat := NewCatalog(smallConfig())
	s := rng.New(2)
	counts := map[SongID]int{}
	for i := 0; i < 50000; i++ {
		counts[cat.SampleSong(s, 0)]++
	}
	if counts[cat.Song(0, 1)] <= counts[cat.Song(0, 100)]*5 {
		t.Fatalf("rank 1 (%d) not much more popular than rank 100 (%d)",
			counts[cat.Song(0, 1)], counts[cat.Song(0, 100)])
	}
}

func TestGenerateUsersLibraryShape(t *testing.T) {
	cfg := smallConfig()
	cat := NewCatalog(cfg)
	users := GenerateUsers(cat, rng.New(3))
	if len(users) != cfg.Users {
		t.Fatalf("users = %d", len(users))
	}
	var sizes float64
	for _, u := range users {
		if len(u.Library) == 0 {
			t.Fatal("user with empty library")
		}
		sizes += float64(len(u.Library))
		if len(u.Others) != cfg.OtherCategories {
			t.Fatalf("user has %d other categories", len(u.Others))
		}
		for _, o := range u.Others {
			if o == u.Favorite {
				t.Fatal("favorite category among others")
			}
		}
	}
	mean := sizes / float64(len(users))
	if math.Abs(mean-cfg.LibraryMean) > cfg.LibraryStd {
		t.Fatalf("mean library size %v, want ~%v", mean, cfg.LibraryMean)
	}
}

func TestGenerateUsersFavoriteShare(t *testing.T) {
	cfg := smallConfig()
	cat := NewCatalog(cfg)
	users := GenerateUsers(cat, rng.New(4))
	// Across users, about half of each library must come from the
	// favorite category.
	var favFrac float64
	for _, u := range users {
		fav := 0
		for s := range u.Library {
			if int(s)/cat.perCat == u.Favorite {
				fav++
			}
		}
		favFrac += float64(fav) / float64(len(u.Library))
	}
	favFrac /= float64(len(users))
	if math.Abs(favFrac-0.5) > 0.1 {
		t.Fatalf("favorite share %v, want ~0.5", favFrac)
	}
}

func TestGenerateUsersFavoriteAssignmentSkewed(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 2000
	cat := NewCatalog(cfg)
	users := GenerateUsers(cat, rng.New(5))
	counts := make([]int, cfg.Categories)
	for _, u := range users {
		counts[u.Favorite]++
	}
	// Zipf(50, 0.9): category 0 must dominate category 49.
	if counts[0] <= counts[49]*3 {
		t.Fatalf("favorite assignment not skewed: c0=%d c49=%d", counts[0], counts[49])
	}
}

func TestGenerateUsersDeterministic(t *testing.T) {
	cfg := smallConfig()
	cat := NewCatalog(cfg)
	a := GenerateUsers(cat, rng.New(7))
	b := GenerateUsers(cat, rng.New(7))
	for i := range a {
		if a[i].Favorite != b[i].Favorite || len(a[i].Library) != len(b[i].Library) {
			t.Fatalf("generation not deterministic at user %d", i)
		}
		for s := range a[i].Library {
			if !b[i].Has(s) {
				t.Fatalf("library mismatch at user %d", i)
			}
		}
	}
}

func TestTotalSongsApproximation(t *testing.T) {
	// Paper: 2000 users x mean 200 songs ≈ 400k songs total. Scaled
	// here: 200 users x mean 40 = 8000.
	cfg := smallConfig()
	cat := NewCatalog(cfg)
	users := GenerateUsers(cat, rng.New(8))
	total := 0
	for _, u := range users {
		total += len(u.Library)
	}
	want := float64(cfg.Users) * cfg.LibraryMean
	if math.Abs(float64(total)-want) > want*0.15 {
		t.Fatalf("total songs %d, want ~%v", total, want)
	}
}

func TestSampleQueryCategories(t *testing.T) {
	cfg := smallConfig()
	cat := NewCatalog(cfg)
	users := GenerateUsers(cat, rng.New(9))
	s := rng.New(10)
	u := users[0]
	favorite, other := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		q := SampleQuery(cat, s, u)
		c := int(q) / cat.perCat
		if c == u.Favorite {
			favorite++
			continue
		}
		found := false
		for _, o := range u.Others {
			if c == o {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("query category %d not in user profile", c)
		}
		other++
	}
	frac := float64(favorite) / n
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("favorite query fraction %v, want ~0.5", frac)
	}
}

func TestSampleQueryAvoidsOwnedSongs(t *testing.T) {
	cfg := smallConfig()
	cat := NewCatalog(cfg)
	users := GenerateUsers(cat, rng.New(11))
	s := rng.New(12)
	owned := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if users[1].Has(SampleQuery(cat, s, users[1])) {
			owned++
		}
	}
	// Bounded resampling tolerates rare fallthroughs only.
	if owned > n/50 {
		t.Fatalf("%d/%d queries for owned songs", owned, n)
	}
}

func TestQuickLibraryWithinCatalog(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := smallConfig()
		cfg.Users = 20
		cat := NewCatalog(cfg)
		users := GenerateUsers(cat, rng.New(seed))
		for _, u := range users {
			for s := range u.Library {
				if int(s) >= cfg.Songs {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerateUsers(b *testing.B) {
	cfg := smallConfig()
	cat := NewCatalog(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GenerateUsers(cat, rng.New(uint64(i)))
	}
}
