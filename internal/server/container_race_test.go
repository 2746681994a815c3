package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"fungusdb/internal/core"
	"fungusdb/internal/fungus"
	"fungusdb/internal/tuple"
)

// TestContainerReadsRaceDistill asks containers and lists them over
// HTTP while CONSUME … distill, distill-on-rot and container decay
// write the same digests. Every digest read must take the shelf's lock:
// the race detector (the CI race job runs internal/server) reports a
// sketch map or counter read beside a write otherwise.
func TestContainerReadsRaceDistill(t *testing.T) {
	db, err := core.Open(core.DBConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := tuple.MustSchema(
		tuple.Column{Name: "device", Kind: tuple.KindString},
		tuple.Column{Name: "temp", Kind: tuple.KindFloat},
	)
	tbl, err := db.CreateTable("t", core.TableConfig{
		Schema:            schema,
		Shards:            2,
		Fungus:            fungus.Linear{Rate: 0.2},
		DistillOnRot:      true,
		ContainerHalfLife: 1000, // decays every tick, never rots here
	})
	if err != nil {
		t.Fatal(err)
	}
	consume, err := tbl.Prepare("SELECT CONSUME COUNT(*) FROM t WHERE temp < 10")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	defer ts.Close()

	const rounds = 60
	var wg sync.WaitGroup
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	run(func(i int) error { // writer: insert, then consume into "c"
		rows := make([][]tuple.Value, 16)
		for k := range rows {
			rows[k] = core.Row(fmt.Sprintf("d%d", (i+k)%5), float64((i*16+k)%20))
		}
		if _, err := tbl.InsertBatch(rows); err != nil {
			return err
		}
		res, err := consume.ExecuteOpts(core.QueryOpts{Distill: "c"})
		if err != nil {
			return err
		}
		return res.Close()
	})
	run(func(int) error { // decay: rot distills into _rot, containers decay
		_, err := db.Tick()
		return err
	})
	get := func(path string) error {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		// A container is missing (404) until its first distill.
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return nil
	}
	questions := []string{"top:device", "count", "ndv:device", "q:temp:0.5", "has:device:d3", "mean:temp"}
	for _, name := range []string{"c", core.RotContainer} {
		run(func(i int) error { // asker
			return get("/v1/tables/t/containers/" + name + "/ask?q=" + url.QueryEscape(questions[i%len(questions)]))
		})
	}
	run(func(int) error { // lister
		return get("/v1/tables/t/containers")
	})
	wg.Wait()
}
