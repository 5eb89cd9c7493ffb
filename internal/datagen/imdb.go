package datagen

import (
	"math/rand"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/storage"
)

var (
	movieKinds   = []string{"movie", "tv series", "tv movie", "video movie", "tv mini series", "video game", "episode"}
	roleNames    = []string{"actor", "actress", "producer", "writer", "cinematographer", "composer", "costume designer", "director", "editor", "guest", "miscellaneous crew", "production designer"}
	companyKinds = []string{"distributors", "production companies", "special effects companies", "miscellaneous companies"}
	linkKinds    = []string{"follows", "followed by", "remake of", "remade as", "references", "referenced in", "spoofs", "spoofed in", "features", "featured in", "spin off from", "spin off", "version of", "similar to", "edited into", "edited from", "alternate language version of", "unknown link"}
	ccKinds      = []string{"cast", "crew", "complete", "complete+verified"}
	genreWords   = []string{"Drama", "Comedy", "Action", "Thriller", "Romance", "Documentary", "Horror", "Crime", "Adventure", "Sci-Fi"}
)

// IMDB builds the IMDB/JOB-shaped database (21 tables) at the given scale
// factor, preserving the JOB benchmark's star-like join graph around title,
// name, and the dimension "type" tables.
func IMDB(seed int64, sf float64) *storage.Database {
	nTitle := scaled(10000, sf)
	nName := scaled(15000, sf)
	nCast := scaled(40000, sf)
	nMInfo := scaled(20000, sf)
	nMKey := scaled(15000, sf)
	nMComp := scaled(10000, sf)
	nPInfo := scaled(10000, sf)
	nChar := scaled(8000, sf)
	nComp := scaled(3000, sf)
	nKey := scaled(5000, sf)
	nAkaN := scaled(3000, sf)
	nAkaT := scaled(2000, sf)
	nMIIdx := scaled(5000, sf)
	nMLink := scaled(1000, sf)
	nCCast := scaled(1000, sf)
	nInfoT := 113

	specs := []tableSpec{
		{name: "kind_type", rows: len(movieKinds), pk: "id", cols: []columnGen{
			serial("id"),
			strCol("kind", func(_ *rand.Rand, i int) string { return movieKinds[i%len(movieKinds)] }),
		}},
		{name: "role_type", rows: len(roleNames), pk: "id", cols: []columnGen{
			serial("id"),
			strCol("role", func(_ *rand.Rand, i int) string { return roleNames[i%len(roleNames)] }),
		}},
		{name: "company_type", rows: len(companyKinds), pk: "id", cols: []columnGen{
			serial("id"),
			strCol("kind", func(_ *rand.Rand, i int) string { return companyKinds[i%len(companyKinds)] }),
		}},
		{name: "link_type", rows: len(linkKinds), pk: "id", cols: []columnGen{
			serial("id"),
			strCol("link", func(_ *rand.Rand, i int) string { return linkKinds[i%len(linkKinds)] }),
		}},
		{name: "comp_cast_type", rows: len(ccKinds), pk: "id", cols: []columnGen{
			serial("id"),
			strCol("kind", func(_ *rand.Rand, i int) string { return ccKinds[i%len(ccKinds)] }),
		}},
		{name: "info_type", rows: nInfoT, pk: "id", cols: []columnGen{
			serial("id"),
			strCol("info", func(_ *rand.Rand, i int) string { return numbered("info_", i+1, 3, "") }),
		}},
		{name: "title", rows: nTitle, pk: "id",
			fks: []catalog.ForeignKey{{Column: "kind_id", RefTable: "kind_type", RefColumn: "id"}},
			cols: []columnGen{
				serial("id"),
				strCol("title", func(rng *rand.Rand, i int) string {
					return numbered(genreWords[rng.Intn(len(genreWords))]+" Title ", i+1, 6, "")
				}),
				fkUniform("kind_id", len(movieKinds)),
				uniformInt("production_year", 1900, 2024),
				uniformInt("season_nr", 0, 30),
				uniformInt("episode_nr", 0, 400),
			}},
		{name: "name", rows: nName, pk: "id", cols: []columnGen{
			serial("id"),
			strCol("name", func(_ *rand.Rand, i int) string { return numbered("Person ", i+1, 7, "") }),
			categorical("gender", []string{"m", "f", ""}),
			uniformInt("imdb_index", 1, 50),
		}},
		{name: "char_name", rows: nChar, pk: "id", cols: []columnGen{
			serial("id"),
			strCol("name", func(_ *rand.Rand, i int) string { return numbered("Character ", i+1, 6, "") }),
			uniformInt("imdb_index", 1, 20),
		}},
		{name: "company_name", rows: nComp, pk: "id", cols: []columnGen{
			serial("id"),
			strCol("name", func(_ *rand.Rand, i int) string { return numbered("Company ", i+1, 5, "") }),
			categorical("country_code", []string{"[us]", "[gb]", "[de]", "[fr]", "[jp]", "[in]", "[ca]", "[it]"}),
		}},
		{name: "keyword", rows: nKey, pk: "id", cols: []columnGen{
			serial("id"),
			strCol("keyword", func(_ *rand.Rand, i int) string { return numbered("keyword-", i+1, 5, "") }),
		}},
		{name: "cast_info", rows: nCast, pk: "id",
			fks: []catalog.ForeignKey{
				{Column: "person_id", RefTable: "name", RefColumn: "id"},
				{Column: "movie_id", RefTable: "title", RefColumn: "id"},
				{Column: "person_role_id", RefTable: "char_name", RefColumn: "id"},
				{Column: "role_id", RefTable: "role_type", RefColumn: "id"},
			},
			cols: []columnGen{
				serial("id"),
				fkZipf("person_id", nName, 0.75),
				fkZipf("movie_id", nTitle, 0.8),
				fkUniform("person_role_id", nChar),
				fkUniform("role_id", len(roleNames)),
				uniformInt("nr_order", 1, 100),
			}},
		{name: "movie_info", rows: nMInfo, pk: "id",
			fks: []catalog.ForeignKey{
				{Column: "movie_id", RefTable: "title", RefColumn: "id"},
				{Column: "info_type_id", RefTable: "info_type", RefColumn: "id"},
			},
			cols: []columnGen{
				serial("id"),
				fkZipf("movie_id", nTitle, 0.8),
				fkZipf("info_type_id", nInfoT, 0.6),
				strCol("info", func(rng *rand.Rand, _ int) string { return genreWords[rng.Intn(len(genreWords))] }),
			}},
		{name: "movie_info_idx", rows: nMIIdx, pk: "id",
			fks: []catalog.ForeignKey{
				{Column: "movie_id", RefTable: "title", RefColumn: "id"},
				{Column: "info_type_id", RefTable: "info_type", RefColumn: "id"},
			},
			cols: []columnGen{
				serial("id"),
				fkUniform("movie_id", nTitle),
				fkUniform("info_type_id", nInfoT),
				uniformFloat("info", 1, 10),
			}},
		{name: "movie_keyword", rows: nMKey, pk: "id",
			fks: []catalog.ForeignKey{
				{Column: "movie_id", RefTable: "title", RefColumn: "id"},
				{Column: "keyword_id", RefTable: "keyword", RefColumn: "id"},
			},
			cols: []columnGen{
				serial("id"),
				fkZipf("movie_id", nTitle, 0.8),
				fkZipf("keyword_id", nKey, 0.7),
			}},
		{name: "movie_companies", rows: nMComp, pk: "id",
			fks: []catalog.ForeignKey{
				{Column: "movie_id", RefTable: "title", RefColumn: "id"},
				{Column: "company_id", RefTable: "company_name", RefColumn: "id"},
				{Column: "company_type_id", RefTable: "company_type", RefColumn: "id"},
			},
			cols: []columnGen{
				serial("id"),
				fkZipf("movie_id", nTitle, 0.8),
				fkZipf("company_id", nComp, 0.7),
				fkUniform("company_type_id", len(companyKinds)),
			}},
		{name: "movie_link", rows: nMLink, pk: "id",
			fks: []catalog.ForeignKey{
				{Column: "movie_id", RefTable: "title", RefColumn: "id"},
				{Column: "linked_movie_id", RefTable: "title", RefColumn: "id"},
				{Column: "link_type_id", RefTable: "link_type", RefColumn: "id"},
			},
			cols: []columnGen{
				serial("id"),
				fkUniform("movie_id", nTitle),
				fkUniform("linked_movie_id", nTitle),
				fkUniform("link_type_id", len(linkKinds)),
			}},
		{name: "complete_cast", rows: nCCast, pk: "id",
			fks: []catalog.ForeignKey{
				{Column: "movie_id", RefTable: "title", RefColumn: "id"},
				{Column: "subject_id", RefTable: "comp_cast_type", RefColumn: "id"},
				{Column: "status_id", RefTable: "comp_cast_type", RefColumn: "id"},
			},
			cols: []columnGen{
				serial("id"),
				fkUniform("movie_id", nTitle),
				fkUniform("subject_id", len(ccKinds)),
				fkUniform("status_id", len(ccKinds)),
			}},
		{name: "person_info", rows: nPInfo, pk: "id",
			fks: []catalog.ForeignKey{
				{Column: "person_id", RefTable: "name", RefColumn: "id"},
				{Column: "info_type_id", RefTable: "info_type", RefColumn: "id"},
			},
			cols: []columnGen{
				serial("id"),
				fkZipf("person_id", nName, 0.75),
				fkUniform("info_type_id", nInfoT),
				strCol("info", func(rng *rand.Rand, _ int) string { return comment(rng) }),
			}},
		{name: "aka_name", rows: nAkaN, pk: "id",
			fks: []catalog.ForeignKey{{Column: "person_id", RefTable: "name", RefColumn: "id"}},
			cols: []columnGen{
				serial("id"),
				fkUniform("person_id", nName),
				strCol("name", func(_ *rand.Rand, i int) string { return numbered("Alias ", i+1, 6, "") }),
			}},
		{name: "aka_title", rows: nAkaT, pk: "id",
			fks: []catalog.ForeignKey{{Column: "movie_id", RefTable: "title", RefColumn: "id"}},
			cols: []columnGen{
				serial("id"),
				fkUniform("movie_id", nTitle),
				strCol("title", func(_ *rand.Rand, i int) string { return numbered("Alt Title ", i+1, 6, "") }),
				uniformInt("production_year", 1900, 2024),
			}},
	}
	return buildDatabase("imdb", seed, specs)
}
