// Command fungusd serves a FungusDB over HTTP (see internal/server for
// the API). Decay advances in real time: one logical tick per -period.
//
//	fungusd -addr :8044 -dir /var/lib/fungusdb -period 1s
//
// With -dir set, tables created through the API with "persist": true
// survive restarts (WAL + snapshots + catalog).
//
// With -follow set, the process runs as a replication follower instead:
// it mirrors the leader's persistent tables as in-memory read-only
// replicas, tails the leader's WAL (see docs/REPLICATION.md), and
// serves read-only queries, stats and metrics. Mutating routes answer
// the stable "read_only" error code, and decay arrives exclusively via
// the leader's shipped tick/evict records — the local clock stays put.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"fungusdb/internal/core"
	"fungusdb/internal/repl"
	"fungusdb/internal/server"
	"fungusdb/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8044", "listen address")
	dir := flag.String("dir", "", "data directory (empty = in-memory)")
	period := flag.Duration("period", time.Second, "wall time per decay tick")
	seed := flag.Int64("seed", 20150104, "deterministic seed")
	durability := flag.String("durability", "none", "default WAL sync level for persistent tables: none|grouped|strict (table specs override)")
	groupInterval := flag.Duration("group-commit-interval", 0, "grouped-durability flush tick (0 = 2ms default)")
	groupSize := flag.Int("group-commit-size", 0, "records per group-commit window before an early flush (0 = 512 default)")
	maxRequestBytes := flag.Int64("max-request-bytes", 0, "request body cap in bytes (0 = 64 MiB default, negative = unlimited)")
	follow := flag.String("follow", "", "leader base URL to replicate from (runs as a read-only follower)")
	flag.Parse()

	level, err := wal.ParseDurability(*durability)
	if err != nil {
		log.Fatalf("fungusd: %v", err)
	}
	if *follow != "" && *dir != "" {
		log.Fatalf("fungusd: -follow replicas are in-memory; drop -dir")
	}
	db, err := core.Open(core.DBConfig{
		Seed: *seed, Dir: *dir,
		Durability: level, GroupCommitInterval: *groupInterval, GroupCommitSize: *groupSize,
	})
	if err != nil {
		log.Fatalf("fungusd: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	srvCfg := server.Config{MaxRequestBytes: *maxRequestBytes}
	var follower *repl.Follower
	if *follow != "" {
		follower, err = repl.Start(repl.Config{Leader: *follow, DB: db})
		if err != nil {
			log.Fatalf("fungusd: follow: %v", err)
		}
		defer follower.Stop()
		srvCfg.ReadOnly = true
		srvCfg.ReplStatus = follower.ServerStatus
	} else {
		// The periodic clock of T seconds: advance decay in real time.
		// A follower skips it — decay arrives through the leader's
		// shipped tick and evict records instead.
		go func() {
			tick := time.NewTicker(*period)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if _, err := db.Tick(); err != nil {
						log.Printf("fungusd: tick: %v", err)
					}
				}
			}
		}()
	}

	handler := server.NewWithConfig(db, srvCfg)
	if follower != nil {
		handler.Registry().Register(follower.Collector())
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	if *follow != "" {
		fmt.Printf("fungusd following %s on %s (read-only)\n", *follow, *addr)
	} else {
		fmt.Printf("fungusd listening on %s (tick period %v, dir %q)\n", *addr, *period, *dir)
	}
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("fungusd: %v", err)
	}
	if err := db.Close(); err != nil {
		log.Fatalf("fungusd: close: %v", err)
	}
	fmt.Println("fungusd: checkpointed and stopped")
}
