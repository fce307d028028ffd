package main

import (
	"strings"
	"testing"
)

const sampleAnswer = `{"query":"σ{okey = 7}(Order_paris)","result":{"attributes":["qty","okey","ckey","pkey","loc"],"count":1,"tuples":[[12,7,301,44,"paris"]]},"translated":"σ{okey = 7}(FactParis)"}`

func TestAnswerCount(t *testing.T) {
	if n, ok := answerCount([]byte(sampleAnswer)); !ok || n != 1 {
		t.Errorf("answerCount = %d, %v", n, ok)
	}
	if _, ok := answerCount([]byte(`{"error":"boom"}`)); ok {
		t.Error("answerCount found a count in an error body")
	}
}

// The engine's join picks its own column order; the oracle comparison
// must not depend on it.
func TestCanonIgnoresColumnOrder(t *testing.T) {
	rel, err := decodeRelation([]byte(sampleAnswer), true)
	if err != nil {
		t.Fatal(err)
	}
	want := canonRow(map[string]string{"okey": "7", "ckey": "301", "pkey": "44", "loc": "paris", "qty": "12"})
	if got := rel.canon(); len(got) != 1 || got[0] != want {
		t.Errorf("canon = %v, want [%s]", got, want)
	}
	keys, err := rel.column("okey")
	if err != nil || len(keys) != 1 || keys[0] != 7 {
		t.Errorf("column(okey) = %v, %v", keys, err)
	}
	if _, err := decodeRelation([]byte(strings.Replace(sampleAnswer, `"count":1`, `"count":2`, 1)), true); err == nil {
		t.Error("a count that disagrees with the tuples was accepted")
	}
}

func TestDiffRows(t *testing.T) {
	if d := diffRows([]string{"a", "b"}, []string{"a", "b"}); d != "" {
		t.Errorf("equal lists differ: %s", d)
	}
	if d := diffRows([]string{"a"}, []string{"a", "b"}); d == "" {
		t.Error("a missing row went unnoticed")
	}
	if d := diffRows([]string{"a", "c"}, []string{"a", "b"}); d == "" {
		t.Error("a wrong row went unnoticed")
	}
}
