package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/lockrank"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/snapshot"
)

// Shipment is one shipped checkpoint: the leader's warehouse state,
// its per-source watermarks, and the replication coordinates it was
// cut at. Applying it and then streaming from LSN+1 reconstructs the
// leader exactly.
type Shipment struct {
	State algebra.MapState
	Marks map[string]uint64 // per-source applied watermarks (meta marks split out)
	Epoch uint64
	LSN   uint64
}

// Batch is one stream response: the leader's current epoch and tip
// plus the decoded records. Torn marks a response body cut mid-record
// — Records holds the complete, checksum-valid prefix (safe to apply;
// the partial record was never decoded) and the follower re-requests
// from its watermark.
type Batch struct {
	Epoch   uint64
	Tip     uint64
	Records []journal.Record
	Torn    bool
}

// Client streams a leader's checkpoint and journal records over a
// remote.Link — the fault policy of the remote source client: retries
// with jittered exponential backoff, a circuit breaker that
// quarantines an unreachable leader, and the Health view dwserve's
// /replica/status surfaces. A stale epoch is the Link's sticky verdict
// (the client reports itself fenced); trimmed and future positions are
// verdicts too. Resume is by watermark: every fetch names the first LSN
// the follower still needs, so crashes, retries and torn streams
// re-request instead of re-applying.
type Client struct {
	*remote.Link
	base  string
	db    *catalog.Database
	httpc *http.Client

	mu       lockrank.Mutex[lockrank.ReplicaClient]
	minEpoch uint64 // fencing floor: responses below it are rejected
	cursor   uint64 // last LSN the follower reported applying
}

// NewClient builds a stream client for the leader at leaderURL,
// decoding records against db. Its Health names the leader URL as the
// source and the applied LSN as the cursor.
func NewClient(leaderURL string, db *catalog.Database, cfg remote.Config) *Client {
	c := &Client{base: leaderURL, db: db, httpc: &http.Client{}}
	c.Link = remote.NewLink(leaderURL, cfg, c.appliedLSN, "fenced", ErrStaleEpoch, ErrTrimmed, ErrFuture)
	return c
}

// SetTransport swaps the underlying HTTP transport (tests inject a
// chaos.FaultyTransport or a chaos.Partition here).
func (c *Client) SetTransport(rt http.RoundTripper) { c.httpc.Transport = rt }

// Base returns the leader URL this client streams from.
func (c *Client) Base() string { return c.base }

// SetMinEpoch raises the fencing floor: any response whose epoch is
// below it is rejected with ErrStaleEpoch. The floor never goes down.
func (c *Client) SetMinEpoch(e uint64) {
	c.mu.Lock()
	if e > c.minEpoch {
		c.minEpoch = e
	}
	c.mu.Unlock()
}

// MinEpoch returns the current fencing floor.
func (c *Client) MinEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.minEpoch
}

// SetCursor records the follower's durably applied LSN for the Health
// view.
func (c *Client) SetCursor(lsn uint64) {
	c.mu.Lock()
	if lsn > c.cursor {
		c.cursor = lsn
	}
	c.mu.Unlock()
}

func (c *Client) appliedLSN() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cursor
}

// FetchSnapshot ships the leader's current checkpoint, retrying
// transient failures like every other fetch.
func (c *Client) FetchSnapshot(ctx context.Context) (*Shipment, error) {
	var ship *Shipment
	_, err := c.Do(ctx, 0, func(actx context.Context) error {
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.base+"/replica/snapshot", nil)
		if err != nil {
			return err
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			return fmt.Errorf("replica: %s/replica/snapshot: status %d: %s", c.base, resp.StatusCode, body)
		}
		if err := c.checkEpoch(resp); err != nil {
			return err
		}
		ms, marks, err := snapshot.LoadMarks(resp.Body)
		if err != nil {
			return fmt.Errorf("replica: %s/replica/snapshot: %w", c.base, err)
		}
		sources, epoch, lsn := SplitMetaMarks(marks)
		ship = &Shipment{State: ms, Marks: sources, Epoch: epoch, LSN: lsn}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ship, nil
}

// FetchBatch streams records with LSN ≥ from, long-polling up to wait
// on the leader when none are ready. A body cut mid-record returns the
// complete prefix with Torn set — never a partial record.
func (c *Client) FetchBatch(ctx context.Context, from uint64, wait time.Duration) (*Batch, error) {
	var batch *Batch
	_, err := c.Do(ctx, wait, func(actx context.Context) error {
		q := url.Values{}
		q.Set("from", strconv.FormatUint(from, 10))
		if wait > 0 {
			q.Set("wait", strconv.FormatInt(wait.Milliseconds(), 10))
		}
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.base+"/replica/stream?"+q.Encode(), nil)
		if err != nil {
			return err
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusGone:
			return fmt.Errorf("replica: %s: %w", c.base, ErrTrimmed)
		case http.StatusRequestedRangeNotSatisfiable:
			return fmt.Errorf("replica: %s: %w", c.base, ErrFuture)
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			return fmt.Errorf("replica: %s/replica/stream: status %d: %s", c.base, resp.StatusCode, body)
		}
		if err := c.checkEpoch(resp); err != nil {
			return err
		}
		epoch, _ := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64)
		tip, _ := strconv.ParseUint(resp.Header.Get(HeaderTip), 10, 64)
		b := &Batch{Epoch: epoch, Tip: tip}
		sr := journal.NewStreamReader(resp.Body, c.db)
		for {
			rec, err := sr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if errors.Is(err, journal.ErrTorn) {
				// The connection was cut mid-record: apply the complete
				// prefix, resume from the watermark next round.
				b.Torn = true
				break
			}
			if err != nil {
				return fmt.Errorf("replica: %s/replica/stream: %w", c.base, err)
			}
			b.Records = append(b.Records, rec)
		}
		batch = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	return batch, nil
}

// checkEpoch enforces fencing on one response: its epoch header must
// be at or above the client's floor.
func (c *Client) checkEpoch(resp *http.Response) error {
	epoch, err := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: %s: bad %s header %q", c.base, HeaderEpoch, resp.Header.Get(HeaderEpoch))
	}
	if min := c.MinEpoch(); epoch < min {
		return fmt.Errorf("replica: %s serves epoch %d, fenced at %d: %w", c.base, epoch, min, ErrStaleEpoch)
	}
	return nil
}
