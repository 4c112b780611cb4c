package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"multirag/internal/fault"
	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/retrieval"
	"multirag/internal/wal"
)

// maxPendingBatches bounds the prepared-batch queue: at most this many Ingest
// calls may be past admission (preparing or waiting to commit) at once.
// Later callers block in admit until the committer drains a group, which
// caps the memory held by prepared-but-uncommitted batches.
const maxPendingBatches = 64

// ErrCommit wraps every error the commit itself raises — an injected commit
// fault, a failed replay of stage 1's own output, a failed WAL append — as
// opposed to one the ingested files cause: the server failed, not the
// request.
var ErrCommit = errors.New("core: commit")

// groupWindow caps the group-forming window: an elected leader that can see
// other admitted batches still preparing blocks on the committer condvar —
// ceding the CPU to those fan-outs — until every admitted batch has enqueued
// or this watchdog expires, then commits them as one group. This is the
// binlog-style group-commit trade of a bounded latency bump for amortising
// the per-commit clone/delta/publish across the group. A leader with no
// company (single producer, or everyone already enqueued) skips the window
// entirely, so uncontended ingest pays nothing.
const groupWindow = time.Millisecond

// groupCommitter is the stage-2 state of the pipelined Ingest: a ticket
// counter defining arrival (and therefore commit) order, a bounded queue of
// prepared batches keyed by ticket, and a leader election. There is no
// dedicated committer goroutine — the caller whose batch is next in ticket
// order (or any caller waiting while that batch is ready) becomes the leader,
// drains every consecutive ready ticket as one group, commits the group under
// the write lock and wakes the group's callers. Ticket order makes the final
// state deterministic for a fixed arrival order regardless of how stage-1
// fan-outs interleave.
type groupCommitter struct {
	mu   sync.Mutex
	cond *sync.Cond
	// pending maps ticket → prepared batch awaiting commit.
	pending map[uint64]*prepared
	// nextTicket is the next ticket to hand out; nextCommit the next ticket
	// the committer may commit. Tickets in [nextCommit, nextTicket) are in
	// flight (preparing, queued or being committed).
	nextTicket uint64
	nextCommit uint64
	inflight   int
	committing bool

	// testAdmitted, when set, observes ticket assignment (test seam for the
	// ordered-interleaving equivalence tests). Never set in production.
	testAdmitted func(ticket uint64)
}

func (gc *groupCommitter) init() {
	gc.cond = sync.NewCond(&gc.mu)
	gc.pending = map[uint64]*prepared{}
}

// readyRun counts the consecutive run of pending tickets starting at
// nextCommit — the group a leader would drain right now. Callers hold gc.mu.
func (gc *groupCommitter) readyRun() int {
	run := 0
	for t := gc.nextCommit; gc.pending[t] != nil; t++ {
		run++
	}
	return run
}

// IngestPressure reports the group committer's admission state: how many
// Ingest calls are past admission (preparing, queued or committing) and the
// admission capacity at which further callers block. Serving layers use it to
// convert what would be blocking admission into early rejection — shedding
// load at the front door (HTTP 429) instead of parking request handlers on
// the committer condvar.
func (s *System) IngestPressure() (inflight, capacity int) {
	gc := &s.gc
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.inflight, maxPendingBatches
}

// admit assigns the caller its commit ticket, blocking while the pipeline is
// at capacity. Arrival order is ticket order by definition.
func (s *System) admit(p *prepared) {
	gc := &s.gc
	gc.mu.Lock()
	for gc.inflight >= maxPendingBatches {
		gc.cond.Wait()
	}
	gc.inflight++
	p.ticket = gc.nextTicket
	gc.nextTicket++
	hook := gc.testAdmitted
	gc.mu.Unlock()
	if hook != nil {
		hook(p.ticket)
	}
	// Yield between admission and the expensive fan-out: on saturated
	// schedulers (GOMAXPROCS goroutines per core) this lets concurrent
	// producers register their admissions before any of them starts
	// preparing, so a group-forming leader sees them in inflight and waits
	// for their batches instead of committing alone. With no other runnable
	// goroutine the yield is a no-op.
	runtime.Gosched()
}

// commitJoin enqueues a prepared batch and blocks until it has been
// committed (or skipped). The caller may be elected leader while waiting: it
// then drains the run of consecutive ready tickets starting at nextCommit —
// not necessarily including its own — commits them as one group and goes
// back to waiting for its own result.
func (s *System) commitJoin(p *prepared) (IngestReport, error) {
	gc := &s.gc
	gc.mu.Lock()
	gc.pending[p.ticket] = p
	gc.cond.Broadcast()
	for !p.done {
		if !gc.committing && gc.pending[gc.nextCommit] != nil {
			gc.committing = true
			// Group-forming window: while admitted batches are still
			// preparing (inflight exceeds the ready run), block on the
			// condvar so their fan-outs get the CPU and join this group
			// instead of forcing their own commits. Each enqueue broadcasts;
			// the watchdog timer bounds the wait. committing is already set,
			// so no second leader can start meanwhile.
			if gc.readyRun() < gc.inflight {
				expired := false
				watchdog := time.AfterFunc(groupWindow, func() {
					gc.mu.Lock()
					expired = true
					gc.cond.Broadcast()
					gc.mu.Unlock()
				})
				for gc.readyRun() < gc.inflight && !expired {
					gc.cond.Wait()
				}
				watchdog.Stop()
			}
			var group []*prepared
			for t := gc.nextCommit; gc.pending[t] != nil; t++ {
				group = append(group, gc.pending[t])
				delete(gc.pending, t)
			}
			gc.mu.Unlock()
			s.commitGroup(group)
			gc.mu.Lock()
			gc.nextCommit += uint64(len(group))
			gc.inflight -= len(group)
			gc.committing = false
			for _, q := range group {
				q.done = true
			}
			gc.cond.Broadcast()
			continue
		}
		gc.cond.Wait()
	}
	gc.mu.Unlock()
	return p.rep, p.err
}

// commitGroup applies one group of prepared batches and publishes one
// snapshot for all of them. Under the critical section it clones the serving
// graph and index once, replays each batch's parts in ticket order onto
// the shared clone (measuring the exact per-batch entity/triple/chunk
// deltas), applies one merged line-graph delta over the group's new triple
// IDs and swaps the snapshot pointer.
//
// Failure isolation: a batch whose stage 1 already failed is skipped without
// touching the clone. A batch that fails mid-replay is rolled back by
// rebuilding the clone and deterministically re-replaying the group's earlier
// successful batches — the happy path pays no per-batch checkpoint, the
// (exceptional) failure path pays O(group). Either way the failed batch's
// caller gets the error and nothing of the batch becomes visible.
func (s *System) commitGroup(group []*prepared) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Chaos seam: an error here fails the whole group before any replay —
	// nothing is acknowledged, nothing publishes, callers see the error. The
	// commit path deliberately carries no context (a committing batch must
	// run to a clean outcome even if its Ingest caller gave up), so hang
	// faults release only on Disable/Reset.
	if err := fault.Inject(context.Background(), fault.PointCommit); err != nil {
		for _, p := range group {
			if p.err == nil {
				p.err = fmt.Errorf("%w: %w", ErrCommit, err)
			}
		}
		return
	}
	cur := s.snap.Load()
	g := cur.graph.Clone()
	ix := cur.index.CloneForAppend()
	total := 0
	for _, p := range group {
		if p.err == nil {
			total += p.recordedTriples()
		}
	}
	newIDs := make([]string, 0, total)
	sc := getEmbedScratch(ix.Dim())
	defer putEmbedScratch(sc)
	var d wal.Decoder
	var committed []*prepared
	for _, p := range group {
		if p.err != nil {
			continue
		}
		var err error
		newIDs, err = replayBatch(g, ix, sc, &d, p, newIDs)
		if err != nil {
			p.err = fmt.Errorf("%w: replay: %w", ErrCommit, err)
			// Rollback: discard the poisoned clone and re-replay the group's
			// earlier successes from scratch. Replay is deterministic, so a
			// batch that succeeded once succeeds again with identical deltas.
			g = cur.graph.Clone()
			ix = cur.index.CloneForAppend()
			newIDs = newIDs[:0]
			retained := committed[:0]
			for _, q := range committed {
				var qerr error
				newIDs, qerr = replayBatch(g, ix, sc, &d, q, newIDs)
				if qerr != nil {
					q.err = fmt.Errorf("%w: replay: %w", ErrCommit, qerr) // unreachable for deterministic replays
					continue
				}
				retained = append(retained, q)
			}
			committed = retained
			continue
		}
		committed = append(committed, p)
	}

	if len(committed) > 0 && s.dur != nil {
		// Durability barrier: the group's record must be fsync'd before any
		// of its batches is acknowledged or made visible. On failure nothing
		// publishes and every caller gets the error — an un-acknowledged
		// batch may legitimately be absent after recovery, but an
		// acknowledged one may never be.
		if err := s.dur.appendGroup(committed); err != nil {
			for _, p := range committed {
				p.err = fmt.Errorf("%w: wal append: %w", ErrCommit, err)
			}
			committed = nil
		}
	}
	// Every part is replayed and logged: let go of the group's prepared files
	// before the line graph's delta grows the heap further.
	for _, p := range group {
		p.work = nil
	}

	if len(committed) > 0 {
		next := &snapshot{graph: g, index: ix, gen: cur.gen + 1}
		if !s.cfg.DisableMKA {
			next.sg = linegraph.BuildDelta(cur.sg, g, newIDs)
			st := next.sg.ComputeStats()
			for _, p := range committed {
				p.rep.Homologous = st
			}
		}
		s.snap.Store(next)
		s.setReplicationLSN(s.replPos.Load() + 1)
		if s.dur != nil {
			s.keepDigestPoint(next)
			s.dur.maybeRequestCheckpoint(&s.cfg)
		}
	}
	for _, p := range committed {
		s.buildLLM.Add(int64(p.llm))
	}
}

// replayBatch replays one prepared batch onto the shared commit clone — each
// file's part, decoded through d, whose intern table the group's parts share,
// and posted with the rows stage 1 embedded — appending its new triple IDs
// onto ids, and records the batch's exact deltas in its report. On error the
// clone is left partially mutated — the caller rolls back by rebuilding it.
func replayBatch(g *kg.Graph, ix *retrieval.Index, sc *embedScratch, d *wal.Decoder, p *prepared, ids []string) ([]string, error) {
	entBefore, triBefore := g.NumEntities(), g.NumTriples()
	mark := len(ids)
	p.rep.Chunks = 0
	for i := range p.work {
		w := &p.work[i]
		d.Reset(w.part)
		var err error
		if ids, err = replayPart(d, g, ix, &w.rows, sc, ids); err == nil {
			err = d.Finish()
		}
		if err != nil {
			return ids[:mark], err
		}
		p.rep.Chunks += w.chunks
	}
	p.rep.Extraction.Entities = g.NumEntities() - entBefore
	p.rep.Extraction.Triples = g.NumTriples() - triBefore
	return ids, nil
}
