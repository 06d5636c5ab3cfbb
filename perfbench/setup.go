package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"xomatiq/internal/benchutil"
	"xomatiq/internal/bio"
	"xomatiq/internal/core"
	"xomatiq/internal/hounds"
	"xomatiq/internal/server"
)

// Database names the paper's queries address.
const (
	dbEnzyme = "hlx_enzyme.DEFAULT"
	dbEMBL   = "hlx_embl.inv"
	dbSProt  = "hlx_sprot.all"
)

// warehouse is one engine loaded with the generated corpus and served
// over HTTP on a loopback port.
type warehouse struct {
	dir    string
	eng    *core.Engine
	srv    *server.Server
	enzSrc *hounds.SimSource // the ENZYME remote the update workload publishes to
	url    string
	hc     *http.Client
}

// setupTimes is what one set-up cost.
type setupTimes struct {
	total   time.Duration // generate + open + harness
	harness time.Duration // the three Harness calls
	docs    int           // documents harnessed
}

// buildWarehouse generates the corpus from the corpus seed, opens an engine on
// the default configuration (durable commits: the WAL is fsynced on
// every commit) in dir, and harnesses the three databases. It returns
// the flat files the program received alongside the loaded warehouse.
func buildWarehouse(dir string, o options) (*warehouse, *benchutil.Flats, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	flats, err := benchutil.BuildFlats(o.nEnzyme, o.nEMBL, o.nSProt, bio.GenOptions{Seed: o.corpusSeed})
	if err != nil {
		return nil, nil, st, fmt.Errorf("generate corpus: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, st, err
	}
	eng, err := core.Open(core.NewConfig(filepath.Join(dir, "warehouse.db")))
	if err != nil {
		return nil, nil, st, fmt.Errorf("open engine: %w", err)
	}
	w := &warehouse{dir: dir, eng: eng}
	regs := []struct {
		db, flat string
		tr       hounds.Transformer
	}{
		{dbEnzyme, flats.Enzyme, hounds.EnzymeTransformer{}},
		{dbEMBL, flats.EMBL, hounds.EMBLTransformer{}},
		{dbSProt, flats.SProt, hounds.SProtTransformer{}},
	}
	hStart := time.Now()
	for _, r := range regs {
		src := hounds.NewSimSource(r.db, r.flat)
		if r.db == dbEnzyme {
			w.enzSrc = src
		}
		if err := eng.RegisterSource(r.db, src, r.tr); err != nil {
			eng.Close()
			return nil, nil, st, fmt.Errorf("register %s: %w", r.db, err)
		}
		n, err := eng.Harness(r.db)
		if err != nil {
			eng.Close()
			return nil, nil, st, fmt.Errorf("harness %s: %w", r.db, err)
		}
		st.docs += n
	}
	st.harness = time.Since(hStart)
	st.total = time.Since(start)
	return w, flats, st, nil
}

// serve starts the HTTP front end on a loopback port. At most two
// connections are opened to it, whatever the workload.
func (w *warehouse) serve() error {
	w.srv = server.New(w.eng, server.Config{HTTPAddr: "127.0.0.1:0"})
	if err := w.srv.Start(); err != nil {
		w.srv = nil
		return fmt.Errorf("start server: %w", err)
	}
	w.url = "http://" + w.srv.HTTPAddr() + "/v1/query"
	w.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
	return nil
}

// close stops the server and the engine and removes the warehouse.
func (w *warehouse) close() error {
	var firstErr error
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		firstErr = w.srv.Shutdown(ctx)
		cancel()
		w.hc.CloseIdleConnections()
	}
	if err := w.eng.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := os.RemoveAll(w.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// fileBytes is the size of the warehouse's data file and WAL.
func (w *warehouse) fileBytes() (int64, error) {
	var total int64
	for _, name := range []string{"warehouse.db", "warehouse.db.wal"} {
		fi, err := os.Stat(filepath.Join(w.dir, name))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// reply is one answered HTTP query.
type reply struct {
	res   *core.Result
	bytes int
	// rtt runs from sending the request to reading the last byte of the
	// reply. Decoding the reply is the benchmark's work, not the
	// server's, so it is left out.
	rtt time.Duration
}

// query sends one FLWR query to /v1/query and decodes the answer. Its
// latency is rep.rtt; a failed query has none.
func (w *warehouse) query(ctx context.Context, text string) (reply, error) {
	body, err := json.Marshal(map[string]string{"query": text})
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := w.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	rtt := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("read reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	res, err := core.ResultFromJSON(data)
	if err != nil {
		return reply{}, err
	}
	return reply{res: res, bytes: len(data), rtt: rtt}, nil
}
