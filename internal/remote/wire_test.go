package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"dwcomplement/internal/obs"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/source"
)

// hostileUpdates are report payloads no source writes. The first three
// panicked the parent inside relation.New / Insert (as their JSON
// equivalents, e.g. {"ins":{"Sale":{"Attrs":["item","item"],…}}}).
var hostileUpdates = map[string][]byte{
	"duplicate attribute": {1, 4, 'S', 'a', 'l', 'e', 2, 4, 'i', 't', 'e', 'm', 4, 'i', 't', 'e', 'm', 0, 0},
	"empty attribute":     {1, 4, 'S', 'a', 'l', 'e', 2, 4, 'i', 't', 'e', 'm', 0, 0, 0},
	"short row":           {1, 4, 'S', 'a', 'l', 'e', 2, 4, 'i', 't', 'e', 'm', 5, 'c', 'l', 'e', 'r', 'k', 1, 4, 1, 'x', 0},
	"trailing bytes":      {0, 0, 0},
	"absent":              nil,
}

func TestFromWireRefusesHostileUpdates(t *testing.T) {
	sc, _, _ := fixture(t)
	for name, b := range hostileUpdates {
		n, err := FromWire(WireNotification{Source: "sales", Seq: 1, Update: b}, sc.DB)
		if !errors.Is(err, relation.ErrEncoding) || n.Update != nil {
			t.Errorf("%s: notification %+v, error %v; want an error wrapping relation.ErrEncoding", name, n, err)
		}
	}
}

// TestWireRoundTrip: a report is its JSON envelope around the journal's
// update bytes, and every cut of the body is a decode error.
func TestWireRoundTrip(t *testing.T) {
	sc, src, ts := fixture(t)
	sell(t, sc, src, "TV set", "Mary")
	resp, err := http.Get(ts.URL + "/reports?from=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body = bytes.TrimSpace(body) // the encoder's newline
	var rb ReportBatch
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	got, err := FromWire(rb.Reports[0], sc.DB)
	if err != nil || got.Seq != 1 || !strings.Contains(got.Update.String(), "TV set") {
		t.Fatalf("round trip: %+v (update %v), error %v", got, got.Update, err)
	}
	for n := range len(body) {
		var cut ReportBatch
		if json.Unmarshal(body[:n], &cut) == nil {
			t.Fatalf("the first %d of %d body bytes decoded: %s", n, len(body), body[:n])
		}
	}
}

// TestClientCountsHostileBodyAsBadResponse: a 200 whose report does not
// decode is a failed attempt like any other — retried, charged to the
// breaker — and nothing of the batch is delivered.
func TestClientCountsHostileBodyAsBadResponse(t *testing.T) {
	sc, _, ts := fixture(t)
	for name, b := range hostileUpdates {
		body, err := json.Marshal(ReportBatch{Source: "sales", Seq: 1, Reports: []WireNotification{{Source: "sales", Seq: 1, Update: b}}})
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickConfig()
		cfg.MaxRetries = 1
		cfg.BreakerThreshold = 2
		c := NewClient("sales", ts.URL, sc.DB, cfg)
		c.SetMetrics(obs.NewRegistry())
		c.SetTransport(roundTripFunc(func(*http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(string(body)))}, nil
		}))
		c.OnUpdate(func(n source.Notification) { t.Errorf("%s: delivered %+v", name, n) })
		if err := c.Resend(1); !errors.Is(err, relation.ErrEncoding) {
			t.Errorf("%s: resend error %v, want one wrapping relation.ErrEncoding", name, err)
		}
		if v := c.mRetries.Value(); v != 1 {
			t.Errorf("%s: %d retries, want 1", name, v)
		}
		if st := c.Breaker().State(); st != BreakerOpen {
			t.Errorf("%s: breaker %v after two bad responses, want open", name, st)
		}
	}
}
