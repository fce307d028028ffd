// Package replica implements warehouse replication: a leader retains
// its committed journal records in an in-memory log — the capped
// retain.Log a source keeps its reports in, at LSNs, plus an epoch —
// and serves them, with checkpoint shipping for bootstrap, to
// followers that replay them through the normal maintenance path. A
// follower pulls over a remote.Link, the fault policy of the source
// wire, so the two hops retry, back off and report health alike. It is the paper's
// update-independence property (w' = W(u(W⁻¹(w))), Definition 4.1)
// stretched across processes: since a warehouse state plus the suffix
// of reported updates determines the next state exactly, a follower
// that holds a shipped snapshot and streams the journal suffix
// reconstructs bit-for-bit the leader's warehouse without ever
// contacting a source.
//
// Coordinates. Every committed record carries two numbers:
//
//   - LSN — its position in the leader's replication log. The LSN is
//     the stream resume cursor: a follower that durably applied
//     through LSN n asks for n+1 onward, across retries, crashes and
//     leader failover.
//   - Epoch — the leadership term it was committed under. Epochs are
//     the fencing tokens of failover: a promotion bumps the epoch, and
//     every replica rejects records (and stream responses) from an
//     older epoch, so a deposed leader that keeps accepting writes
//     cannot contaminate the new lineage.
//
// Exactly-once. LSNs order the stream; the per-source Seq watermarks
// (the same ones snapshots checkpoint) deduplicate it. A record is
// applied only when its Seq is exactly the source's watermark + 1 —
// shipped-snapshot state and streamed records may overlap arbitrarily
// (bootstrap races, retries, torn streams, failover re-points) and
// each report still takes effect exactly once.
//
// The wire format is the journal's own frame format (see
// journal.EncodeRecord / journal.StreamReader): a stream response body
// is a bare sequence of journal frames, so a record crosses the
// network bit-identical to how it crosses a crash, and a connection
// cut mid-record is detected exactly like a torn tail.
package replica

import (
	"errors"
	"strings"
)

// Epoch, tip and role headers of the replication endpoints. The epoch
// header doubles as the fencing check: a follower refuses to apply a
// response whose epoch is below the highest it has ever seen.
const (
	HeaderEpoch = "X-DW-Replica-Epoch"
	HeaderLSN   = "X-DW-Replica-LSN"
	HeaderTip   = "X-DW-Replica-Tip"
	HeaderRole  = "X-DW-Replica-Role"
)

// ErrTrimmed reports that the requested LSN precedes the leader's
// retained log: the follower is too far behind to stream and must
// re-bootstrap from a shipped checkpoint.
var ErrTrimmed = errors.New("replica: requested records precede the leader's retained log (re-ship the snapshot)")

// ErrFuture reports that the requested LSN is past the leader's tip:
// the follower holds records this leader never committed (a divergent
// suffix from a deposed leader, acknowledged before the failover cut
// it off). The follower must discard its state and re-bootstrap from
// the new leader's checkpoint.
var ErrFuture = errors.New("replica: requested LSN is past the leader's tip (divergent history; re-ship the snapshot)")

// ErrStaleEpoch reports fencing: a stream, record or promotion carried
// an epoch below the highest this replica has seen. The sender is a
// deposed leader (or a replayed promotion); nothing from it may be
// applied.
var ErrStaleEpoch = errors.New("replica: stale epoch (fenced by a newer leadership term)")

// Reserved snapshot-mark keys. Checkpoints persist the replication
// coordinates alongside the per-source watermarks in the existing
// marks map — the "~" prefix keeps them out of the source namespace
// (relation and source names are identifiers), so the snapshot format
// needs no version bump and pre-replication checkpoints load as
// epoch 0, LSN 0.
const (
	MarkEpoch = "~epoch"
	MarkLSN   = "~lsn"
)

// IsMetaMark reports whether a snapshot mark key is a replication
// coordinate rather than a source watermark.
func IsMetaMark(name string) bool { return strings.HasPrefix(name, "~") }

// WithMetaMarks returns a copy of the source watermarks with the
// replication coordinates folded in, ready for snapshot.SaveFileMarks.
func WithMetaMarks(marks map[string]uint64, epoch, lsn uint64) map[string]uint64 {
	out := make(map[string]uint64, len(marks)+2)
	for k, v := range marks {
		out[k] = v
	}
	out[MarkEpoch] = epoch
	out[MarkLSN] = lsn
	return out
}

// SplitMetaMarks separates a loaded marks map into the per-source
// watermarks and the replication coordinates (zero when absent — a
// pre-replication checkpoint).
func SplitMetaMarks(marks map[string]uint64) (sources map[string]uint64, epoch, lsn uint64) {
	sources = make(map[string]uint64, len(marks))
	for k, v := range marks {
		switch {
		case k == MarkEpoch:
			epoch = v
		case k == MarkLSN:
			lsn = v
		case !IsMetaMark(k):
			sources[k] = v
		}
	}
	return sources, epoch, lsn
}
