package core_test

import (
	"fmt"
	"log"

	"fungusdb/internal/core"
	"fungusdb/internal/fungus"
	"fungusdb/internal/tuple"
)

// Example shows the two natural laws end to end: a table that decays
// under a TTL fungus, and a consume query that distills what it reads.
func Example() {
	db, err := core.Open(core.DBConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	tbl, err := db.CreateTable("readings", core.TableConfig{
		Schema: tuple.MustSchema(
			tuple.Column{Name: "device", Kind: tuple.KindString},
			tuple.Column{Name: "temp", Kind: tuple.KindFloat},
		),
		Fungus: fungus.TTL{Lifetime: 2},
	})
	if err != nil {
		log.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		if _, err := tbl.Insert(core.Row("sensor-1", 20.0+float64(i))); err != nil {
			log.Fatal(err)
		}
	}

	// Law 2: consume the hot readings into a knowledge container.
	hot, err := tbl.SQL("SELECT CONSUME * FROM readings WHERE temp >= 22", core.QueryOpts{Distill: "hot"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("consumed:", len(hot.Rows), "left:", tbl.Len())

	// Law 1: after the TTL lifetime, the remainder rots away.
	db.Tick()
	db.Tick()
	fmt.Println("after 2 ticks:", tbl.Len())

	// The knowledge outlives the data.
	fmt.Println("knowledge count:", tbl.Shelf().Get("hot").Digest.Count())
	// Output:
	// consumed: 2 left: 2
	// after 2 ticks: 0
	// knowledge count: 2
}

// ExampleTable_SQL shows the SQL surface, including freshness as a
// queryable system column.
func ExampleTable_SQL() {
	db, _ := core.Open(core.DBConfig{Seed: 1})
	defer db.Close()
	tbl, _ := db.CreateTable("clicks", core.TableConfig{
		Schema: tuple.MustSchema(
			tuple.Column{Name: "url", Kind: tuple.KindString},
			tuple.Column{Name: "ms", Kind: tuple.KindInt},
		),
	})
	for _, row := range [][]tuple.Value{
		core.Row("/home", 120),
		core.Row("/home", 80),
		core.Row("/shop", 300),
	} {
		if _, err := tbl.Insert(row); err != nil {
			log.Fatal(err)
		}
	}
	g, err := tbl.SQL("SELECT url, COUNT(*) AS hits, AVG(ms) AS avg FROM clicks GROUP BY url ORDER BY hits DESC")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range g.Rows {
		fmt.Printf("%s %d %.0f\n", row[0].AsString(), row[1].AsInt(), row[2].AsFloat())
	}
	// Output:
	// /home 2 100
	// /shop 1 300
}
