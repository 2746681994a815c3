// Quickstart: the two natural laws of Big Data in ~60 lines.
//
//	go run ./examples/quickstart
//
// A table of sensor readings decays under the EGI fungus (law 1) while
// queries consume what they answer (law 2), distilling it into a
// knowledge container that outlives the raw data.
package main

import (
	"fmt"
	"log"

	"fungusdb/internal/container"
	"fungusdb/internal/core"
	"fungusdb/internal/fungus"
	"fungusdb/internal/tuple"
)

func main() {
	db, err := core.Open(core.DBConfig{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := tuple.MustSchema(
		tuple.Column{Name: "device", Kind: tuple.KindString},
		tuple.Column{Name: "temp", Kind: tuple.KindFloat},
	)
	readings, err := db.CreateTable("readings", core.TableConfig{
		Schema: schema,
		// Law 1: the extent decays — EGI plants rot spots that grow
		// along the insertion-time axis.
		Fungus:       fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 2, DecayRate: 0.1, AgeBias: 2}),
		DistillOnRot: true,                            // inspect rotting tuples once before removal
		Digest:       container.CompactDigestConfig(), // small extent, small sketches
	})
	if err != nil {
		log.Fatal(err)
	}

	for i := 0; i < 1000; i++ {
		if _, err := readings.Insert(core.Row(fmt.Sprintf("sensor-%d", i%10), 20+float64(i%15))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("loaded:  %d tuples\n", readings.Len())

	// Prepared statements compile once and stream: the `?` binds at
	// Execute, and rows arrive shard-parallel in insertion order
	// without materialising the answer set.
	warm, err := readings.Prepare("SELECT device, temp FROM readings WHERE temp > ? LIMIT 3")
	if err != nil {
		log.Fatal(err)
	}
	rows, err := warm.Execute(tuple.Float(28))
	if err != nil {
		log.Fatal(err)
	}
	for rows.Next() {
		v := rows.Values()
		fmt.Printf("streamed: %s %s\n", v[0].AsString(), v[1])
	}
	if err := rows.Close(); err != nil {
		log.Fatal(err)
	}

	// Law 2: a consume query removes what it answers and cooks it into
	// the "hot" knowledge container.
	g, err := readings.SQL("SELECT CONSUME COUNT(*) FROM readings WHERE temp > 30", core.QueryOpts{Distill: "hot"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consumed %d hot readings; extent now %d\n", g.Rows[0][0].AsInt(), readings.Len())

	// Let nature work: 40 clock cycles of decay.
	for i := 0; i < 40; i++ {
		if _, err := db.Tick(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after 40 ticks: %s\n", readings.Profile())

	// The raw rows may be gone, but the knowledge survives.
	hot := readings.Shelf().Get("hot").Digest
	mean, _ := hot.Mean("temp")
	ndv, _ := hot.NDV("device")
	fmt.Printf("knowledge: %d hot readings from ~%d devices, mean temp %.1f, in %d bytes\n",
		hot.Count(), ndv, mean, hot.Bytes())

	fmt.Println("counters:", readings.Counters())
}
