// Logrot example: EGI versus TTL retention, side by side.
//
//	go run ./examples/logrot
//
// The same syslog stream feeds two tables: one under classic TTL
// retention, one under the EGI fungus. An ingestion-time refiner drops
// debug noise before it ever lands (cooking a.s.a.p., §3). The report
// contrasts the two decay shapes — TTL's hard horizon versus EGI's blue
// cheese, which keeps scattered old entries "edible for a long time" —
// and shows that serious events were distilled into a never-rotting
// incident container under both regimes.
package main

import (
	"fmt"
	"log"

	"fungusdb/internal/core"
	"fungusdb/internal/fungus"
	"fungusdb/internal/ingest"
	"fungusdb/internal/tuple"
	"fungusdb/internal/workload"
)

func main() {
	db, err := core.Open(core.DBConfig{Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	mk := func(name string, f fungus.Fungus) (*core.Table, *ingest.Pipeline) {
		gen := workload.NewSyslog(16, 17) // same seed -> identical streams
		tbl, err := db.CreateTable(name, core.TableConfig{
			Schema:            gen.Schema(),
			Fungus:            f,
			ContainerHalfLife: 0,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Cook at ingestion: debug chatter (severity 7) never lands.
		pipe, err := ingest.New(gen, tbl, ingest.Config{
			BatchSize: 200,
			Refiner: ingest.RefinerFunc(func(row []tuple.Value) (bool, error) {
				return row[1].AsInt() < 7, nil
			}),
		})
		if err != nil {
			log.Fatal(err)
		}
		return tbl, pipe
	}

	ttlTbl, ttlPipe := mk("logs_ttl", fungus.TTL{Lifetime: 60})
	egiTbl, egiPipe := mk("logs_egi", fungus.NewEGI(fungus.EGIConfig{
		SeedsPerTick: 8, DecayRate: 0.08, AgeBias: 2,
	}))

	const ticks = 120
	for tick := 1; tick <= ticks; tick++ {
		if _, err := ttlPipe.Run(200); err != nil {
			log.Fatal(err)
		}
		if _, err := egiPipe.Run(200); err != nil {
			log.Fatal(err)
		}
		if _, err := db.Tick(); err != nil {
			log.Fatal(err)
		}

		// Incident response: serious events (sev <= 3) are consumed
		// into the incident book on both arms, every 10 ticks.
		if tick%10 == 0 {
			for _, tbl := range []*core.Table{ttlTbl, egiTbl} {
				if _, err := tbl.SQL("SELECT CONSUME COUNT(*) FROM "+tbl.Name()+" WHERE severity <= 3",
					core.QueryOpts{Distill: "incidents"}); err != nil {
					log.Fatal(err)
				}
			}
		}
		if tick%30 == 0 {
			fmt.Printf("t%-4d ttl: %s\n", tick, ttlTbl.Profile())
			fmt.Printf("      egi: %s\n", egiTbl.Profile())
		}
	}

	fmt.Println("\n=== decay shapes along the time axis (old -> new) ===")
	show := func(name string, tbl *core.Table) {
		fmt.Printf("%s:\n", name)
		for _, b := range tbl.TimeSeries(8) {
			bar := ""
			for i := 0; i < int(b.Mean*24); i++ {
				bar += "#"
			}
			fmt.Printf("  ids %7d..%-7d live %6d  mean %.2f %s\n", b.FromID, b.ToID, b.Live, b.Mean, bar)
		}
	}
	show("ttl (hard horizon: old buckets empty, recent pristine)", ttlTbl)
	show("egi (blue cheese: old buckets thinned but still populated)", egiTbl)

	fmt.Println("\n=== incident books (identical streams -> comparable knowledge) ===")
	for _, arm := range []struct {
		name string
		tbl  *core.Table
	}{{"ttl", ttlTbl}, {"egi", egiTbl}} {
		c := arm.tbl.Shelf().Get("incidents")
		if c == nil {
			fmt.Printf("  %s: no incidents captured\n", arm.name)
			continue
		}
		d := c.Digest
		top, _ := d.HeavyHitters("host", 3)
		fmt.Printf("  %s: %d serious events", arm.name, d.Count())
		if len(top) > 0 {
			fmt.Printf("; noisiest host %s (~%d)", top[0].Item, top[0].Count)
		}
		fmt.Println()
	}

	fmt.Println("\ncounters:")
	fmt.Println("  ttl:", ttlTbl.Counters())
	fmt.Println("  egi:", egiTbl.Counters())
}
