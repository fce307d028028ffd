package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

const testRows = 4000

func writeAll(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	d := generate(seed, testRows)
	if _, err := d.writeFiles(dir); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	var stream bytes.Buffer
	for i := 0; i < 300; i++ {
		stream.WriteString(d.update(i).body)
		stream.WriteByte('\n')
	}
	files["(updates)"] = stream.Bytes()
	var queries bytes.Buffer
	p, rng := d.pool(), newRand(seed)
	for i := 0; i < 300; i++ {
		queries.WriteString(p.draw(rng).text)
		queries.WriteByte('\n')
	}
	files["(queries)"] = queries.Bytes()
	return files
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := writeAll(t, 7), writeAll(t, 7), writeAll(t, 8)
	if len(a) != 8 { // spec, five CSVs, update stream, query draws
		t.Fatalf("generated %d inputs, want 8", len(a))
	}
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s differs between two generations from seed 7", name)
		}
	}
	for _, name := range []string{"customer.csv", "order_paris.csv", "order_tokyo.csv", "(updates)", "(queries)"} {
		if bytes.Equal(a[name], c[name]) {
			t.Errorf("%s is the same for seeds 7 and 8", name)
		}
	}
}

func TestEveryUpdateChangesState(t *testing.T) {
	d := generate(1, testRows)
	m := newModel(d)
	for i := 0; i < 1000; i++ {
		u := d.update(i)
		if u.insKey <= d.ordersPerSite() || m.live[u.site][u.insKey] {
			t.Fatalf("update %d inserts key %d, which is loaded or already live", i, u.insKey)
		}
		if u.delKey != 0 && !m.live[u.site][u.delKey] {
			t.Fatalf("update %d deletes key %d, which is not live", i, u.delKey)
		}
		if i >= 2*deleteLag && u.delKey == 0 {
			t.Fatalf("update %d carries no delete", i)
		}
		m.ack(u)
		if n := len(m.live[u.site]); n > deleteLag {
			t.Fatalf("after update %d site %d holds %d churn rows, more than deleteLag", i, u.site, n)
		}
	}
}

// The timed window checks a row count only, which is sound only if no
// update of the stream can change a pool query's answer.
func TestPoolAnswersSurviveChurn(t *testing.T) {
	d := generate(3, testRows)
	m, p := newModel(d), d.pool()
	before := map[*query]int{}
	for _, q := range p.all {
		before[q] = len(m.answer(q))
	}
	for i := 0; i < 500; i++ {
		m.ack(d.update(i))
	}
	empty := 0
	for _, q := range p.all {
		n := len(m.answer(q))
		if n != before[q] {
			t.Errorf("%s: %d rows before the updates, %d after", q.text, before[q], n)
		}
		if n == 0 {
			empty++
		}
	}
	if empty > len(p.all)/10 {
		t.Errorf("%d of %d pool queries return nothing", empty, len(p.all))
	}
	for _, cs := range classShare {
		if len(p.byClass[cs.class]) == 0 {
			t.Errorf("pool has no %s queries", cs.class)
		}
	}
}

func TestModelBaseTracksAcks(t *testing.T) {
	d := generate(5, testRows)
	m := newModel(d)
	n := d.ordersPerSite()
	for i := 0; i < 10; i++ {
		m.ack(d.update(i))
	}
	if got := len(m.base("Order_paris")); got != n+5 {
		t.Errorf("Order_paris has %d rows after 5 inserts, want %d", got, n+5)
	}
	if got := len(m.base("Customer")); got != len(d.customers) {
		t.Errorf("Customer has %d rows, want %d", got, len(d.customers))
	}
}

func TestContractFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, contractJSON()) {
		t.Error("BENCHMARK.json differs from the tables in contract.go; regenerate it with: bash benchmark/run.sh -contract > BENCHMARK.json")
	}
}
