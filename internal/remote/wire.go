// Package remote turns the source boundary of Figure 1 into a real
// network boundary. A SourceServer is a stateless HTTP handler over one
// autonomous source's capped report log (report polling with
// long-poll, resend for gap resync, a health endpoint); a Client
// implements the source.Reporter interface over that wire. Its fault
// handling is a Link, the one policy of both wire hops (replica.Client
// embeds one too): per-attempt deadlines, retries with exponential
// backoff and jitter (idempotent GETs only — replays are deduped by
// the integrator via sequence numbers), a circuit breaker with
// half-open probe requests, and health/quarantine state that feeds the
// warehouse's serve-stale degradation.
//
// The wire format deliberately rides the journal's update codec
// (journal.AppendUpdate/DecodeUpdate), so an update is the same bytes
// whether it crosses a disk or a network boundary, and carries the same
// Seq the recovery protocol keys on. The envelope is plain JSON over
// HTTP/1.1 (the update base64 inside it), no third-party dependencies.
// The update bytes carry no version: a source must run the warehouse's
// build, and one whose codec differs is refused as a bad response.
package remote

import (
	"fmt"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/source"
)

// WireNotification is one change report on the wire: the reporting
// source, its per-source sequence number, and the update as
// journal.AppendUpdate wrote it.
type WireNotification struct {
	Source string `json:"source"`
	Seq    uint64 `json:"seq"`
	Update []byte `json:"update"`
	// Lineage (both optional, so a report without them is applied): when
	// the report was applied at the source, and the W3C traceparent of
	// its sampled "source.apply" span — the propagation that lets the
	// warehouse join the source's trace and measure refresh lag.
	EmittedUnixNano int64  `json:"emittedUnixNano,omitempty"`
	Traceparent     string `json:"traceparent,omitempty"`
}

// ToWire serializes a notification for transport.
func ToWire(n source.Notification) WireNotification {
	return WireNotification{
		Source: n.Source, Seq: n.Seq, Update: journal.AppendUpdate(nil, n.Update),
		EmittedUnixNano: n.EmittedUnixNano, Traceparent: n.Traceparent,
	}
}

// FromWire restores a notification against the shared database schema;
// bytes the decoder refuses fail with an error wrapping
// relation.ErrEncoding, which the client counts as a bad response.
func FromWire(w WireNotification, db *catalog.Database) (source.Notification, error) {
	u, err := journal.DecodeUpdate(w.Update, db)
	if err != nil {
		return source.Notification{}, fmt.Errorf("remote: report %s/%d: %w", w.Source, w.Seq, err)
	}
	return source.Notification{
		Source: w.Source, Seq: w.Seq, Update: u,
		EmittedUnixNano: w.EmittedUnixNano, Traceparent: w.Traceparent,
	}, nil
}

// ReportBatch is the response body of GET /reports and GET /resend: the
// source's name and latest sequence number, plus every retained report
// in the requested range, in ascending sequence order.
type ReportBatch struct {
	Source  string             `json:"source"`
	Seq     uint64             `json:"seq"`
	Reports []WireNotification `json:"reports"`
}

// healthBody is the response body of GET /healthz.
type healthBody struct {
	Source   string `json:"source"`
	Seq      uint64 `json:"seq"`
	Retained int    `json:"retained"`
	Sealed   bool   `json:"sealed"`
}
