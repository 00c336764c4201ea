package store

import "fmt"

// Backend is the persistence engine beneath a Store. The Store owns the
// in-memory view (typed indexes, XPath queries, generation counters) and
// the group-commit choreography; a Backend owns bytes on (or off) disk.
// Extracting this seam is what lets the same negotiation-facing store run
// over the segmented filesystem WAL or a pure in-memory image (tests,
// benches, cluster followers) — and later over cloud object stores —
// without touching the committer or any caller.
//
// Concurrency contract: Recover is called once, before the committer
// starts. Append, Sync, Rotate and Close are called only from the
// committer goroutine, strictly serialized. Snapshot may run concurrently
// with later Appends (the online-checkpoint path): a backend that cannot
// tolerate that must do its checkpoint work inside Rotate and make
// Snapshot a no-op. Destroy is called only after Close has returned.
type Backend interface {
	// Recover rebuilds state from storage, handing batches of entries to
	// apply in commit order. source labels where a batch came from for
	// error reports.
	Recover(apply func(entries []walEntry, source string) error) error
	// Append commits one mutation batch. When the configured durability
	// demands it, the batch must be on stable storage before Append
	// returns; an error poisons the log (the committer never retries).
	Append(batch []walEntry) error
	// Sync forces every appended batch so far to stable storage
	// (Store.Sync and the final flush at Close).
	Sync() error
	// Rotate begins a checkpoint: it seals the current log unit and
	// returns an opaque token identifying the checkpoint boundary, which
	// the Store hands to Snapshot together with the live record set as of
	// this call.
	Rotate() (token uint64, err error)
	// Snapshot persists live as the checkpoint image for token and
	// garbage-collects log units the image supersedes. Backends with no
	// log to truncate may no-op.
	Snapshot(token uint64, live []walEntry) error
	// Close releases handles. The committer calls Sync first when the
	// durability policy requires it.
	Close() error
	// Destroy removes everything the backend ever wrote.
	Destroy() error
}

// Backend kind names, accepted in Options.Backend and on the tnserve /
// benchjoin command lines.
const (
	// BackendFSWAL is the default: the crash-safe segmented write-ahead
	// log with checkpoint snapshots (PR 5).
	BackendFSWAL = "fswal"
	// BackendMemory keeps nothing on disk. Writes still flow through the
	// group-commit path (batching, OnCommit gating, observers), which is
	// what cluster followers and benches want; durability is explicitly
	// none.
	BackendMemory = "memory"
)

// BackendKinds lists the selectable backend names.
func BackendKinds() []string { return []string{BackendFSWAL, BackendMemory} }

// newBackend constructs the backend opts selects for a store at path.
func (s *Store) newBackend(path string) (Backend, error) {
	switch s.opts.Backend {
	case "", BackendFSWAL:
		return &fswalBackend{path: path, opts: s.opts, fs: s.fs, met: s.met}, nil
	case BackendMemory:
		return memBackend{}, nil
	default:
		return nil, fmt.Errorf("store: unknown backend %q (have %v)", s.opts.Backend, BackendKinds())
	}
}

// validateEntry rejects mutations no backend can frame (the committer
// fails the one writer instead of poisoning the batch): kind and key must
// fit the uint16 length fields and the document must stay below the 1 GiB
// bound replay enforces.
func validateEntry(e walEntry) error {
	if len(e.kind) > 0xFFFF || len(e.key) > 0xFFFF {
		return fmt.Errorf("store: kind or key too long for WAL frame")
	}
	if len(e.doc) > 1<<30 {
		return fmt.Errorf("store: document too large for WAL frame")
	}
	return nil
}

// memBackend is the in-memory Backend: every method is a no-op. The
// Store's maps ARE the state; a reopen starts empty. Torture suites run
// it through the same schedules as the durable backends but exempt it
// from the durability-only assertions.
type memBackend struct{}

func (memBackend) Recover(func([]walEntry, string) error) error { return nil }
func (memBackend) Append([]walEntry) error                      { return nil }
func (memBackend) Sync() error                                  { return nil }
func (memBackend) Rotate() (uint64, error)                      { return 0, nil }
func (memBackend) Snapshot(uint64, []walEntry) error            { return nil }
func (memBackend) Close() error                                 { return nil }
func (memBackend) Destroy() error                               { return nil }
