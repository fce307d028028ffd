// Command yardstick is the benchmark's measure of how fast the machine
// is right now. It is a small HTTP server shaped like the warehouse —
// it loads the generated order CSVs into maps at start-up and answers
// point lookups with a JSON row — but it is part of the benchmark, not
// of the program under test, so it does the same work on every commit.
//
// The sandboxes the benchmark runs on share a host: for minutes at a
// time every process on them runs 1.2 to 1.5 times slower, allocation-
// and memory-heavy code more than arithmetic. The harness boots a
// yardstick next to every boot it times and sends it a request between
// the requests it times, and reports the warehouse's times relative to
// the yardstick's (see speedFactor in the harness and the README).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// row is one order, kept the way a naive store would: a struct for the
// lookup and a generic tuple, so the heap holds many small objects.
type row struct {
	okey, ckey, pkey, qty int
	loc                   string
	tuple                 map[string]any
}

// load reads one generated order CSV (header, then okey,ckey,pkey,loc,qty).
func load(path string, into map[int]*row) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		cols := strings.Split(sc.Text(), ",")
		if len(cols) != 5 {
			return fmt.Errorf("%s: malformed row %q", path, sc.Text())
		}
		var n [5]int
		for _, i := range []int{0, 1, 2, 4} {
			if n[i], err = strconv.Atoi(cols[i]); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
		}
		into[n[0]] = &row{n[0], n[1], n[2], n[4], cols[3], map[string]any{
			"okey": n[0], "ckey": n[1], "pkey": n[2], "loc": cols[3], "qty": n[4],
		}}
	}
	return sc.Err()
}

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	dir := flag.String("dir", ".", "directory holding the generated CSV files")
	flag.Parse()
	files, err := filepath.Glob(filepath.Join(*dir, "order_*.csv"))
	if err != nil || len(files) == 0 {
		fmt.Fprintf(os.Stderr, "yardstick: no order_*.csv in %s\n", *dir)
		os.Exit(1)
	}
	sites := make([]map[int]*row, len(files))
	for i, f := range files {
		sites[i] = map[int]*row{}
		if err := load(f, sites[i]); err != nil {
			fmt.Fprintln(os.Stderr, "yardstick:", err)
			os.Exit(1)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("/point", func(w http.ResponseWriter, r *http.Request) {
		k, _ := strconv.Atoi(r.URL.Query().Get("k"))
		tuples := [][]any{}
		if x, ok := sites[k%len(sites)][k]; ok {
			tuples = append(tuples, []any{x.okey, x.ckey, x.pkey, x.loc, x.qty})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"attributes": []string{"okey", "ckey", "pkey", "loc", "qty"}, "tuples": tuples, "count": len(tuples),
		})
	})
	if err := http.ListenAndServe(*addr, mux); err != nil {
		fmt.Fprintln(os.Stderr, "yardstick:", err)
		os.Exit(1)
	}
}
