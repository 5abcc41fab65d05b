// Package workload generates the synthetic workloads of the paper's
// evaluation: the Section 4.2 music-sharing dataset (songs, categories,
// user libraries, queries, churn) plus the web-proxy and OLAP-chunk
// workloads used by the additional case studies.
//
// Everything is driven by deterministic rng.Streams so that an
// experiment seed fully determines the dataset and the query sequence.
package workload

import (
	"fmt"
	"math"

	"repro/internal/digest"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// SongID identifies a song globally: category*songsPerCategory + rank-1
// (rank 1 = most popular in its category). It doubles as the content
// key in the search framework.
type SongID = digest.Key

// MusicConfig holds the Section 4.2 parameters. The zero value is not
// usable; start from DefaultMusicConfig.
type MusicConfig struct {
	// Songs is the size of the search space ("200,000 distinct files").
	Songs int
	// Categories is the number of music genres ("50 categories").
	Categories int
	// PopularityTheta is the within-category Zipf skew (0.9).
	PopularityTheta float64
	// UserCategoryTheta is the Zipf skew of the assignment of users to
	// favorite categories (0.9).
	UserCategoryTheta float64
	// Users is the network size ("2,000 users").
	Users int
	// LibraryMean and LibraryStd parameterize the Gaussian library
	// size (200 / 50).
	LibraryMean, LibraryStd float64
	// FavoriteFraction is the share of a library drawn from the
	// favorite category (0.5).
	FavoriteFraction float64
	// OtherCategories is how many non-favorite categories contribute
	// the remainder (5, at 10% each).
	OtherCategories int
}

// DefaultMusicConfig returns the paper's exact settings.
func DefaultMusicConfig() MusicConfig {
	return MusicConfig{
		Songs:             200_000,
		Categories:        50,
		PopularityTheta:   0.9,
		UserCategoryTheta: 0.9,
		Users:             2000,
		LibraryMean:       200,
		LibraryStd:        50,
		FavoriteFraction:  0.5,
		OtherCategories:   5,
	}
}

// Scaled returns the configuration shrunk by factor f (>= 1) for CI
// runs: users, songs and library sizes divide by f, preserving the
// songs-per-user density that drives hit rates.
func (c MusicConfig) Scaled(f int) MusicConfig {
	if f <= 1 {
		return c
	}
	c.Songs /= f
	c.Users /= f
	c.LibraryMean /= float64(f)
	c.LibraryStd /= float64(f)
	if c.LibraryMean < 10 {
		c.LibraryMean, c.LibraryStd = 10, 3
	}
	return c
}

// Validate reports configuration errors: what it accepts builds a
// catalog and a population. Every comparison is written to fail on NaN.
func (c MusicConfig) Validate() error {
	switch {
	case c.Songs <= 0 || c.Categories <= 0 || c.Users <= 0:
		return fmt.Errorf("workload: non-positive sizes in %+v", c)
	case c.Songs%c.Categories != 0:
		return fmt.Errorf("workload: %d songs not divisible into %d categories", c.Songs, c.Categories)
	case c.OtherCategories < 0 || c.OtherCategories >= c.Categories:
		return fmt.Errorf("workload: OtherCategories %d outside [0, %d categories)", c.OtherCategories, c.Categories)
	case !(c.PopularityTheta >= 0) || math.IsInf(c.PopularityTheta, 1):
		return fmt.Errorf("workload: PopularityTheta %v must be finite and non-negative", c.PopularityTheta)
	case !(c.UserCategoryTheta >= 0) || math.IsInf(c.UserCategoryTheta, 1):
		return fmt.Errorf("workload: UserCategoryTheta %v must be finite and non-negative", c.UserCategoryTheta)
	case !(c.LibraryMean > 0) || math.IsInf(c.LibraryMean, 1):
		return fmt.Errorf("workload: LibraryMean %v must be finite and positive", c.LibraryMean)
	case !(c.LibraryStd >= 0) || math.IsInf(c.LibraryStd, 1):
		return fmt.Errorf("workload: LibraryStd %v must be finite and non-negative", c.LibraryStd)
	case !(c.FavoriteFraction >= 0 && c.FavoriteFraction <= 1):
		return fmt.Errorf("workload: FavoriteFraction %v outside [0,1]", c.FavoriteFraction)
	}
	return nil
}

// Catalog is the global song space: equally sized categories with
// Zipf-distributed within-category popularity.
type Catalog struct {
	cfg      MusicConfig
	perCat   int
	pop      *rng.Zipf // within-category popularity (shared: all categories equal size)
	userCats *rng.Zipf // assignment of users to favorite categories
}

// NewCatalog builds the catalog for a configuration.
func NewCatalog(cfg MusicConfig) *Catalog {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	perCat := cfg.Songs / cfg.Categories
	return &Catalog{
		cfg:      cfg,
		perCat:   perCat,
		pop:      rng.NewZipf(perCat, cfg.PopularityTheta),
		userCats: rng.NewZipf(cfg.Categories, cfg.UserCategoryTheta),
	}
}

// Song maps (category, rank) to a SongID. rank is 1-based.
func (c *Catalog) Song(category, rank int) SongID {
	if category < 0 || category >= c.cfg.Categories || rank < 1 || rank > c.perCat {
		panic(fmt.Sprintf("workload: song (%d, %d) out of range", category, rank))
	}
	return SongID(category*c.perCat + rank - 1)
}

// SampleSong draws a song from the given category by popularity.
func (c *Catalog) SampleSong(s *rng.Stream, category int) SongID {
	return c.Song(category, c.pop.Rank(s))
}

// SampleFavoriteCategory draws a user's favorite category (Zipf over
// categories).
func (c *Catalog) SampleFavoriteCategory(s *rng.Stream) int {
	return c.userCats.Index(s)
}

// User is one participant: a library, a preference profile and an
// access-link class.
type User struct {
	// Favorite is the user's favorite category (50% of library and
	// queries).
	Favorite int
	// Others are the user's 5 secondary categories (10% each).
	Others []int
	// Library is the set of songs the user shares.
	Library map[SongID]struct{}
	// Class is the user's access-link bandwidth class.
	Class netsim.BandwidthClass
}

// Has reports whether the user's library holds song s.
func (u *User) Has(s SongID) bool {
	_, ok := u.Library[s]
	return ok
}

// GenerateUsers builds the full population per Section 4.2. The stream
// fully determines the result.
func GenerateUsers(cat *Catalog, s *rng.Stream) []*User {
	cfg := cat.cfg
	users := make([]*User, cfg.Users)
	classes := netsim.AssignClasses(s.Intn, cfg.Users)
	for i := range users {
		u := &User{
			Favorite: cat.SampleFavoriteCategory(s),
			Library:  make(map[SongID]struct{}),
			Class:    classes[i],
		}
		// Pick 5 distinct non-favorite categories.
		u.Others = sampleOtherCategories(s, cfg.Categories, u.Favorite, cfg.OtherCategories)

		size := int(s.Normal(cfg.LibraryMean, cfg.LibraryStd) + 0.5)
		if size < 1 {
			size = 1
		}
		favCount := int(cfg.FavoriteFraction*float64(size) + 0.5)
		fillLibrary(cat, s, u, u.Favorite, favCount)
		rest := size - len(u.Library)
		for j, other := range u.Others {
			// Spread the remainder evenly; the last category absorbs
			// rounding.
			share := rest / len(u.Others)
			if j == len(u.Others)-1 {
				share = rest - share*(len(u.Others)-1)
			}
			fillLibrary(cat, s, u, other, share)
		}
		users[i] = u
	}
	return users
}

// sampleOtherCategories picks k distinct categories != favorite.
func sampleOtherCategories(s *rng.Stream, total, favorite, k int) []int {
	out := make([]int, 0, k)
	seen := map[int]bool{favorite: true}
	for len(out) < k {
		c := s.Intn(total)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// fillLibrary adds count distinct songs from category by popularity.
// Popular songs collide often under Zipf; retries are bounded by
// attempts proportional to count, falling back to sequential ranks so
// generation always terminates even for tiny categories.
func fillLibrary(cat *Catalog, s *rng.Stream, u *User, category, count int) {
	if count > cat.perCat {
		count = cat.perCat
	}
	added := 0
	for attempts := 0; added < count && attempts < count*20; attempts++ {
		song := cat.SampleSong(s, category)
		if !u.Has(song) {
			u.Library[song] = struct{}{}
			added++
		}
	}
	for rank := 1; added < count && rank <= cat.perCat; rank++ {
		song := cat.Song(category, rank)
		if !u.Has(song) {
			u.Library[song] = struct{}{}
			added++
		}
	}
}

// SampleQuery draws the song a user asks for: favorite category with
// probability FavoriteFraction, otherwise one of the user's other
// categories uniformly; the song is drawn by popularity and resampled
// (bounded) to avoid songs the user already holds — users do not search
// for what they can play locally.
func SampleQuery(cat *Catalog, s *rng.Stream, u *User) SongID {
	// The category is drawn once so the bounded resampling below cannot
	// bias the 50/50 preference split (favorite-category songs are more
	// likely to be owned, so per-attempt redraws would skew away from
	// the favorite).
	category := u.Favorite
	if !s.Bernoulli(cat.cfg.FavoriteFraction) {
		category = u.Others[s.Intn(len(u.Others))]
	}
	song := cat.SampleSong(s, category)
	for attempt := 0; u.Has(song) && attempt < 16; attempt++ {
		song = cat.SampleSong(s, category)
	}
	return song
}
