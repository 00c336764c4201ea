package cluster

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"trustvo/internal/pki"
	"trustvo/internal/xmldom"
)

// A session crosses nodes one way: its suspended-state document, sealed
// under the shared cluster key, is posted to a standby table (ship),
// and the session's owner adopts the copy it holds or pulls the
// freshest one from its peers. The seal keeps a forged or
// replayed-from-backup snapshot from hijacking a negotiation, and its
// expiry bounds how stale an adopted state can be.

// standbyTTL bounds how long a standby ship is valid and an unclaimed
// copy is kept: the session idle limit's order of magnitude.
const standbyTTL = 10 * time.Minute

// seal wraps the session document encode writes as a standby ship,
// valid for standbyTTL, and returns its wire form.
func (n *Node) seal(encode func(*xmldom.Writer)) (string, error) {
	if n.keys == nil {
		return "", fmt.Errorf("cluster: node %s has no key to seal a standby ship", n.cfg.Name)
	}
	return pki.Seal(n.keys, pki.LabelStandby, time.Now().Add(standbyTTL), encode), nil
}

// shipHead opens a standby ship under the cluster key as received and
// reads its session document's root start tag, the Reader's first
// token, building no tree and reading no further: the one check before
// the standby POST, takeStandby and fetchStandby trust a shipped
// snapshot, and the one place its id and last sequence are read. It
// returns the document, and the id and sequence the POST ingress files
// it under and the owner ranks copies by: 0 when the document has no
// lastSeq, and a lastSeq that is not a decimal count is an error. An
// error that is neither pki.ErrTicketExpired nor pki.ErrBadSignature is
// a schema error; a node without keys opens nothing.
func (n *Node) shipHead(ship string) (doc, id string, seq int64, err error) {
	if doc, err = pki.OpenWire(n.keys, ship, pki.LabelStandby, time.Now()); err != nil {
		return "", "", 0, err
	}
	r := xmldom.NewReader(doc)
	defer r.Release()
	if r.Next() != xmldom.StartToken {
		return "", "", 0, r.Err()
	}
	if id = r.AttrOr("id", ""); r.Name() != "tnSession" || id == "" {
		return "", "", 0, fmt.Errorf("cluster: sealed <%s> is not a session document", r.Name())
	}
	if raw, ok := r.Attr("lastSeq"); ok {
		if seq, err = strconv.ParseInt(raw, 10, 64); err != nil || seq < 0 {
			return "", "", 0, fmt.Errorf("cluster: sealed session %s has lastSeq %q, not a count", id, raw)
		}
	}
	return doc, id, seq, nil
}

// Drain ships every session this node holds, live or finished, to its
// current ring owner's standby table, where the owner adopts it on the
// session's next exchange or status request. Remove the node from the
// ring first, so "current owner" is a survivor. Sessions with no
// snapshottable state (no message handled yet) are dropped — their
// clients restart from /tn/start, losing nothing acked. A session that
// is still ours, or whose ship fails, goes back into the local table,
// where SuspendSessions finds a live one. Returns how many sessions
// moved; the first error is reported after all sessions were attempted.
func (n *Node) Drain(ctx context.Context) (int, error) {
	moved := 0
	var firstErr error
	for id, encode := range n.tn.DrainSessions() {
		if encode == nil {
			continue // nothing to resume; client restarts from /tn/start
		}
		if target := n.ring.Owner(id); target != "" && target != n.cfg.Name {
			err := n.ship(ctx, target, id, encode)
			if err == nil {
				moved++
				continue
			}
			n.logf("cluster: draining session %s to %s: %v", id, target, err)
			if firstErr == nil {
				firstErr = err
			}
		}
		if _, err := n.tn.AdoptSessionDoc(xmldom.String(encode)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if m := n.metrics; m != nil && moved > 0 {
		m.Counter("cluster_migrations_total").Add(int64(moved))
	}
	return moved, firstErr
}

// Reship is the membership pass every survivor runs after a membership
// change (a kill, a revival). The change can move the successor of a
// session this node holds, for instance to a revived node whose standby
// table died with it, so each live session ships its standby again. A
// failed re-ship is only logged, as the session's next message ships
// anyway. A session whose arc moved stays here until its owner misses
// it and pulls it (findStandby, handOver).
func (n *Node) Reship(ctx context.Context) {
	if err := n.tn.ReshipSessions(ctx); err != nil {
		n.logf("cluster: node %s re-shipping standbys: %v", n.cfg.Name, err)
	}
}
