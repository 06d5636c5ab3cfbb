// Command xomatiqd serves a XomatiQ warehouse over the network: an
// HTTP/JSON API on -http and the console line protocol on -line (which
// `xomatiq -connect host:port` attaches to). See internal/server for
// the wire surface and DESIGN.md §14 for the protocol.
//
//	xomatiqd -db warehouse.db -http :8080 -line :7979
//
// Admission control is engine-wide: -max-sessions caps concurrent
// sessions (HTTP-created and line connections alike), -max-inflight
// sheds queries past the cap with a 429-style overloaded error.
// SIGINT/SIGTERM drains gracefully: listeners close, in-flight queries
// finish (up to -drain), then the warehouse closes cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"xomatiq/internal/core"
	"xomatiq/internal/hounds"
	"xomatiq/internal/server"
)

func main() {
	dbPath := flag.String("db", "warehouse.db", "warehouse database file")
	httpAddr := flag.String("http", ":8080", "HTTP/JSON listen address (empty = disabled)")
	lineAddr := flag.String("line", ":7979", "console line-protocol listen address (empty = disabled)")
	maxSessions := flag.Int("max-sessions", 64, "max concurrent sessions (0 = unlimited)")
	maxInflight := flag.Int("max-inflight", 128, "max in-flight queries before shedding (0 = unlimited)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "shredding goroutines for ingest")
	scanWorkers := flag.Int("query-workers", runtime.GOMAXPROCS(0), "goroutines per large sequential scan (1 = serial)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
	preload := flag.String("preload", "", "load a flat file at startup: db=format:path (repeatable, comma-separated)")
	slow := flag.Duration("slow", 0, "slow-query log threshold (0 = disabled)")
	flag.Parse()

	cfg := core.NewConfig(*dbPath)
	cfg.LoadWorkers = *workers
	cfg.QueryWorkers = *scanWorkers
	cfg.MaxSessions = *maxSessions
	cfg.MaxInflightQueries = *maxInflight
	cfg.SlowQueryThreshold = *slow
	eng, err := core.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if eng.Recovered() {
		log.Print("warehouse recovered from WAL after unclean shutdown")
	}
	if err := runPreloads(eng, *preload); err != nil {
		eng.Close()
		log.Fatal(err)
	}

	srv := server.New(eng, server.Config{HTTPAddr: *httpAddr, LineAddr: *lineAddr})
	if err := srv.Start(); err != nil {
		eng.Close()
		log.Fatal(err)
	}
	if a := srv.HTTPAddr(); a != "" {
		log.Printf("http listening on %s", a)
	}
	if a := srv.LineAddr(); a != "" {
		log.Printf("line protocol listening on %s (attach: xomatiq -connect %s)", a, a)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down (drain %s)", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	cancel()
	if err := eng.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}

// runPreloads handles -preload db=format:path[,db=format:path...]:
// register a file source and harness it before serving, so benchmarks
// and demos start against a warm warehouse.
func runPreloads(eng *core.Engine, spec string) error {
	if spec == "" {
		return nil
	}
	for _, one := range strings.Split(spec, ",") {
		db, rest, ok := strings.Cut(one, "=")
		if !ok {
			return fmt.Errorf("preload %q: want db=format:path", one)
		}
		format, path, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("preload %q: want db=format:path", one)
		}
		tr, ok := hounds.Registry[format]
		if !ok {
			return fmt.Errorf("preload %q: unknown format %q", one, format)
		}
		if err := eng.RegisterSource(db, hounds.FileSource{Path: path}, tr); err != nil {
			return fmt.Errorf("preload %s: %w", db, err)
		}
		n, err := eng.Harness(db)
		if err != nil {
			return fmt.Errorf("preload %s: %w", db, err)
		}
		log.Printf("preloaded %d entries into %s from %s", n, db, path)
	}
	return nil
}
