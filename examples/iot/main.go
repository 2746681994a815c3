// IoT fleet example: distill-before-rot at scale.
//
//	go run ./examples/iot
//
// A hundred sensors stream readings through an ingestion pipeline into
// a decaying table. The operator's dashboard asks two standing
// questions — current alarms (peek, refreshing what it touches) and an
// hourly consume-query that archives old readings into per-hour
// knowledge containers before the fungus can eat them. The final report
// shows the paper's health criterion: nothing of value rotted away
// uncaptured, yet the extent stayed small.
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

const (
	hours        = 6
	ticksPerHour = 50
	rowsPerTick  = 200
)

func main() {
	db, err := core.Open(core.DBConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	gen := workload.NewIoT(100, 7)
	egi := fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 20, DecayRate: 0.05, AgeBias: 2})
	readings, err := db.CreateTable("readings", core.TableConfig{
		Schema:            gen.Schema(),
		Fungus:            fungus.AccessRefresh{Inner: egi}, // tended data stays alive
		TouchOnRead:       true,
		DistillOnRot:      true, // whatever rots anyway is still inspected once
		ContainerHalfLife: 0,    // archives never decay in this example
	})
	if err != nil {
		log.Fatal(err)
	}

	pipe, err := ingest.New(gen, readings, ingest.Config{BatchSize: rowsPerTick})
	if err != nil {
		log.Fatal(err)
	}
	// The hourly archive compiles once; its cutoff binds per hour.
	archiveOld, err := readings.Prepare("SELECT CONSUME COUNT(*) FROM readings WHERE _t < ?")
	if err != nil {
		log.Fatal(err)
	}

	for hour := 0; hour < hours; hour++ {
		for tick := 0; tick < ticksPerHour; tick++ {
			if _, err := pipe.Run(rowsPerTick); err != nil {
				log.Fatal(err)
			}
			if _, err := db.Tick(); err != nil {
				log.Fatal(err)
			}

			// Dashboard: watch the alarms. Peek + TouchOnRead keeps
			// alarming readings fresh — the owner is "taking care" of
			// exactly the data that matters.
			if _, err := readings.SQL("SELECT COUNT(*) FROM readings WHERE alarm"); err != nil {
				log.Fatal(err)
			}
		}

		// End of hour: archive everything older than half an hour into
		// this hour's container, consuming it from the extent.
		cutoff := uint64(db.Now()) - ticksPerHour/2
		archive := fmt.Sprintf("hour-%02d", hour)
		rows, err := archiveOld.ExecuteOpts(core.QueryOpts{Distill: archive}, tuple.Int(int64(cutoff)))
		if err != nil {
			log.Fatal(err)
		}
		var archived int64
		for rows.Next() {
			archived = rows.Values()[0].AsInt()
		}
		if err := rows.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("hour %d: archived %6d readings into %q; extent %6d, %s\n",
			hour, archived, archive, readings.Len(), readings.Profile())
	}

	fmt.Println("\n=== end of shift ===")
	c := readings.Counters()
	fmt.Println("counters:", c)
	fmt.Printf("health: %.1f%% of departed readings captured as knowledge\n", 100*c.CaptureRate())

	fmt.Println("\nwhat the archives know:")
	for _, name := range readings.Shelf().Names() {
		d := readings.Shelf().Get(name).Digest
		mean, _ := d.Mean("temp")
		q95, _ := d.Quantile("temp", 0.95)
		lo, hi := d.TickRange()
		fmt.Printf("  %-8s %7d readings  ticks %s..%s  mean temp %5.1f  p95 %5.1f  (%d bytes)\n",
			name, d.Count(), lo, hi, mean, q95, d.Bytes())
	}

	// Was sensor-042 ever hot? The raw rows are long gone; the bloom
	// filters still answer definite negatives.
	d0 := readings.Shelf().Get("hour-00")
	if d0 != nil {
		present, _ := d0.Digest.MayContain("device", core.Row("sensor-042")[0])
		fmt.Printf("\nhour-00 may contain sensor-042: %v\n", present)
	}
}
