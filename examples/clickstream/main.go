// Clickstream example: consume-on-query analytics.
//
//	go run ./examples/clickstream
//
// Click events land in a table with a strict TTL (sessions lose value
// fast). Three analytics jobs run as consume queries — conversions,
// engaged reads, bounces — each distilling its slice of the stream into
// its own container. The same event is never analysed twice (answers
// are disjoint by construction, the second natural law), and whatever
// no job claimed rots away on schedule.
package main

import (
	"fmt"
	"log"

	"fungusdb/internal/core"
	"fungusdb/internal/fungus"
	"fungusdb/internal/ingest"
	"fungusdb/internal/workload"
)

func main() {
	db, err := core.Open(core.DBConfig{Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	gen := workload.NewClickstream(20000, 500, 99)
	clicks, err := db.CreateTable("clicks", core.TableConfig{
		Schema: gen.Schema(),
		Fungus: fungus.TTL{Lifetime: 30}, // raw clicks live 30 ticks, no exceptions
	})
	if err != nil {
		log.Fatal(err)
	}

	pipe, err := ingest.New(gen, clicks, ingest.Config{BatchSize: 500})
	if err != nil {
		log.Fatal(err)
	}

	jobs := []struct {
		name  string
		where string
	}{
		{"conversions", "converted"},
		{"engaged", "dwell_ms > 5000"},
		{"bounces", "dwell_ms < 200"},
	}

	const rounds = 20
	for round := 0; round < rounds; round++ {
		if _, err := pipe.Run(2000); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := db.Tick(); err != nil {
				log.Fatal(err)
			}
		}
		for _, job := range jobs {
			g, err := clicks.SQL("SELECT CONSUME COUNT(*) FROM clicks WHERE "+job.where, core.QueryOpts{Distill: job.name})
			if err != nil {
				log.Fatal(err)
			}
			if round == rounds-1 {
				fmt.Printf("round %2d %-12s claimed %5d events\n", round, job.name, g.Rows[0][0].AsInt())
			}
		}
	}

	fmt.Printf("\nextent after %d rounds: %d raw clicks (TTL keeps it bounded)\n", rounds, clicks.Len())
	fmt.Println("counters:", clicks.Counters())

	fmt.Println("\nper-job knowledge:")
	for _, job := range jobs {
		c := clicks.Shelf().Get(job.name)
		if c == nil {
			continue
		}
		d := c.Digest
		users, _ := d.NDV("user")
		meanDwell, _ := d.Mean("dwell_ms")
		fmt.Printf("  %-12s %7d events  ~%6d users  mean dwell %6.0f ms\n",
			job.name, d.Count(), users, meanDwell)
		top, _ := d.HeavyHitters("url", 3)
		for _, e := range top {
			fmt.Printf("      %-14s ~%d hits\n", e.Item, e.Count)
		}
	}

	// Sanity: disjointness. Total claimed + rotted + still live equals
	// total ingested — each click was counted exactly once somewhere.
	c := clicks.Counters()
	total := c.Consumed + c.Rotted + uint64(clicks.Len())
	fmt.Printf("\naccounting: consumed %d + rotted %d + live %d = %d (inserted %d)\n",
		c.Consumed, c.Rotted, clicks.Len(), total, c.Inserted)
}
