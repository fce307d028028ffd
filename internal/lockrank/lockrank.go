// Package lockrank orders the mutexes that are ever held while another is
// taken. Each belongs to one class of the rank table below, outer to
// inner, after the Go runtime's own runtime/lockrank.go: a goroutine may
// take a lock only while every lock it already holds ranks before it or is
// of its own class (two relations, two sources). A test binary checks this
// on every Lock once Enable is called (testmain.Run calls it, but not under
// -bench or -race); elsewhere Lock and Unlock cost one branch each around
// the sync.Mutex call.
//
// To add a lock that is held while another is taken, or that is taken
// under a ranked one, give it a class here (a rank constant at the place
// its nesting demands, a type, and the type's class method) and declare it
// as Mutex[ThatClass]. A lock that is in no such
// pair stays a sync.Mutex.
package lockrank

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
)

// Rank is a lock class's place in the acquisition order: lower ranks are
// taken first.
type Rank int

// The rank table, outer to inner.
const (
	_ Rank = iota
	rankSource
	rankSourceDelivery
	rankIntegrator
	rankServer
	rankCarryPlans
	rankBootLedger
	rankController
	rankLink
	rankRemoteClient
	rankJournal
	rankReplicaClient
	rankReplicaLog
	rankLadder
	rankBreaker
	rankEvalContext
	rankRelation
	rankChaos
	rankObservedGauge
	rankRegistry
	rankTracer
	rankTraceStore
	rankSpan
	rankCount
)

// Class is a lock class of the table; a Mutex's type argument names it.
// class gives its rank and its name as a panic names it: package.Type.field,
// or package.var for a package-level mutex.
type Class interface{ class() (Rank, string) }

// The classes, one per rank.
type (
	Source         struct{}
	SourceDelivery struct{}
	Integrator     struct{}
	Server         struct{}
	CarryPlans     struct{}
	BootLedger     struct{}
	Controller     struct{}
	Link           struct{}
	RemoteClient   struct{}
	Journal        struct{}
	ReplicaClient  struct{}
	ReplicaLog     struct{}
	Ladder         struct{}
	Breaker        struct{}
	EvalContext    struct{}
	Relation       struct{}
	Chaos          struct{}
	ObservedGauge  struct{}
	Registry       struct{}
	Tracer         struct{}
	TraceStore     struct{}
	Span           struct{}
)

func (Source) class() (Rank, string)         { return rankSource, "source.Source.mu" }
func (SourceDelivery) class() (Rank, string) { return rankSourceDelivery, "source.Source.deliver" }
func (Integrator) class() (Rank, string)     { return rankIntegrator, "source.Integrator.mu" }
func (Server) class() (Rank, string)         { return rankServer, "dwserve.server.mu" }
func (CarryPlans) class() (Rank, string)     { return rankCarryPlans, "dwserve.carryRegistry.mu" }
func (BootLedger) class() (Rank, string)     { return rankBootLedger, "dwserve.bootLedger.mu" }
func (Controller) class() (Rank, string)     { return rankController, "admission.Controller.mu" }
func (Link) class() (Rank, string)           { return rankLink, "remote.Link.mu" }
func (RemoteClient) class() (Rank, string)   { return rankRemoteClient, "remote.Client.mu" }
func (Journal) class() (Rank, string)        { return rankJournal, "journal.Writer.mu" }
func (ReplicaClient) class() (Rank, string)  { return rankReplicaClient, "replica.Client.mu" }
func (ReplicaLog) class() (Rank, string)     { return rankReplicaLog, "replica.Log.mu" }
func (Ladder) class() (Rank, string)         { return rankLadder, "admission.Ladder.mu" }
func (Breaker) class() (Rank, string)        { return rankBreaker, "remote.Breaker.mu" }
func (EvalContext) class() (Rank, string)    { return rankEvalContext, "algebra.EvalContext.mu" }
func (Relation) class() (Rank, string)       { return rankRelation, "relation.Relation.mu" }
func (Chaos) class() (Rank, string)          { return rankChaos, "chaos.mu" }
func (ObservedGauge) class() (Rank, string)  { return rankObservedGauge, "obs.ObservedGauge.mu" }
func (Registry) class() (Rank, string)       { return rankRegistry, "obs.Registry.mu" }
func (Tracer) class() (Rank, string)         { return rankTracer, "trace.Tracer.mu" }
func (TraceStore) class() (Rank, string)     { return rankTraceStore, "trace.Store.mu" }
func (Span) class() (Rank, string)           { return rankSpan, "trace.Span.mu" }

// Mutex is a sync.Mutex of class C. Its zero value is an unlocked mutex.
type Mutex[C Class] struct{ mu sync.Mutex }

// Lock locks m. With checking on, it first panics, naming both classes,
// if the goroutine holds a lock that ranks after C.
//
// Lock and Unlock are not instrumented under -race: the detector still
// sees the sync.Mutex's acquire and release, and a ranked lock then costs
// what a bare one does (the only access of their own is the read of
// checking, which is written before any goroutine locks).
//
//go:norace
func (m *Mutex[C]) Lock() {
	if checking {
		m.lockChecked()
		return
	}
	m.mu.Lock()
}

// Unlock unlocks m.
//
//go:norace
func (m *Mutex[C]) Unlock() {
	if checking {
		release(&m.mu)
	}
	m.mu.Unlock()
}

func (m *Mutex[C]) lockChecked() {
	var c C
	r, name := c.class()
	g := goroutine()
	heldMu.Lock()
	for _, h := range held[g] {
		if h.rank > r {
			heldMu.Unlock()
			// Printed first: the panic unwinds past Locks that have no
			// deferred Unlock, and a cleanup that then waits on one of
			// them would hang the binary before the panic is reported.
			msg := fmt.Sprintf("lockrank: %s taken while holding %s, which ranks after it", name, h.name)
			fmt.Fprintln(os.Stderr, msg)
			panic(msg)
		}
	}
	heldMu.Unlock()
	m.mu.Lock()
	heldMu.Lock()
	hs, ok := held[g]
	if !ok && len(spare) > 0 {
		hs, spare = spare[len(spare)-1], spare[:len(spare)-1]
	}
	held[g] = append(hs, holding{r, name, &m.mu})
	heldMu.Unlock()
}

// checking is set once, by Enable, before the goroutines that lock start.
var checking bool

// Enable turns checking on for the rest of the process. A test binary's
// TestMain calls it before running its tests.
func Enable() { checking = true }

var (
	heldMu sync.Mutex
	held   = map[uintptr][]holding{} // the ranked locks each goroutine holds, in order taken
	spare  [][]holding               // emptied held slices, reused by the next goroutine to lock
)

// maxSpare bounds spare: as many goroutines as ever hold ranked locks at
// once in a test binary lock without allocating.
const maxSpare = 64

type holding struct {
	rank Rank
	name string
	mu   *sync.Mutex
}

// release forgets the holding of mu: the unlocking goroutine's own, or,
// for a mutex unlocked by another goroutine than the one that locked it,
// the locker's.
func release(mu *sync.Mutex) {
	g := goroutine()
	heldMu.Lock()
	defer heldMu.Unlock()
	if drop(g, mu) {
		return
	}
	for other := range held {
		if drop(other, mu) {
			return
		}
	}
}

func drop(g uintptr, mu *sync.Mutex) bool {
	hs := held[g]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].mu == mu {
			hs = append(hs[:i], hs[i+1:]...)
			if len(hs) == 0 {
				delete(held, g)
				if len(spare) < maxSpare {
					spare = append(spare, hs)
				}
			} else {
				held[g] = hs
			}
			return true
		}
	}
	return false
}

// goroutine identifies the calling goroutine: stackID, unless an
// architecture's file supplies something cheaper. A stack trace per Lock
// and Unlock doubles the wall time of go test ./... (EXPERIMENTS.md).
var goroutine = stackID

// stackID is the calling goroutine's id, from the first line of its stack
// trace ("goroutine 18 [running]:").
func stackID() uintptr {
	var buf [32]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		panic("lockrank: no goroutine id in " + strconv.Quote(string(buf[:])))
	}
	return uintptr(id)
}
