package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"trustvo/internal/pki"
	"trustvo/internal/xmldom"
)

// Live session migration: a draining (or rebalancing) node removes its
// sessions from the service table, seals each suspended-state document
// as a session ticket, and posts it to the session's current ring owner,
// which adopts it. The seal, under the shared cluster key, keeps a forged
// or replayed-from-backup snapshot from hijacking a negotiation, and its
// expiry bounds how stale an adopted state can be. A standby ship is the
// same document under another label, so neither replays as the other.

// seal wraps the session document encode writes for label, valid for
// ttl, and returns its wire form.
func (n *Node) seal(label string, ttl time.Duration, encode func(*xmldom.Writer)) (string, error) {
	if n.keys == nil {
		return "", fmt.Errorf("cluster: node %s has no key to seal %s", n.cfg.Name, label)
	}
	return pki.Seal(n.keys, label, time.Now().Add(ttl), encode).XML(), nil
}

// openSession opens a sealed session document for label under the
// cluster key: the one check before /cluster/adopt, the standby POST,
// takeStandby and fetchStandby trust a shipped snapshot. An error that
// is neither pki.ErrTicketExpired nor pki.ErrBadSignature is a schema
// error; a node without keys opens nothing.
func (n *Node) openSession(root *xmldom.Node, label string) (*xmldom.Node, error) {
	s, err := pki.ParseSealed(root)
	if err != nil {
		return nil, err
	}
	if s.Signature == nil {
		return nil, fmt.Errorf("cluster: unsigned %s document", label)
	}
	doc, err := s.Open(n.keys.PublicKey(), label, time.Now())
	if err != nil {
		return nil, err
	}
	if doc.Name != "tnSession" || doc.AttrOr("id", "") == "" {
		return nil, fmt.Errorf("cluster: sealed <%s> is not a session document", doc.Name)
	}
	return doc, nil
}

// Drain migrates every live, unfinished session to its current ring
// owner. Remove the node from the ring first, so "current owner" is a
// survivor. Sessions with no snapshottable state (no message handled
// yet) are dropped — their clients restart from /tn/start, losing
// nothing acked. Returns how many sessions moved; the first send error
// is reported after all sessions were attempted.
func (n *Node) Drain(ctx context.Context) (int, error) {
	return n.drain(ctx, nil)
}

// MigrateMisowned migrates only sessions the ring no longer assigns to
// this node — the rebalancing pass every survivor runs after membership
// changes (a kill, a revival), so sessions follow their arcs. The change
// can also move the successor of a session this node keeps, for
// instance to a revived node whose standby table died with it, so each
// kept session ships its standby again; a failed re-ship is only logged,
// as the session's next message ships anyway.
func (n *Node) MigrateMisowned(ctx context.Context) (int, error) {
	moved, err := n.drain(ctx, func(id string) bool {
		owner := n.ring.Owner(id)
		return owner != "" && owner != n.cfg.Name
	})
	if rerr := n.tn.ReshipSessions(ctx); rerr != nil {
		n.logf("cluster: node %s re-shipping standbys: %v", n.cfg.Name, rerr)
	}
	return moved, err
}

func (n *Node) drain(ctx context.Context, filter func(id string) bool) (int, error) {
	moved := 0
	var firstErr error
	for id, doc := range n.tn.DrainSessions(filter) {
		if doc == nil {
			continue // nothing to resume; client restarts from /tn/start
		}
		target := n.ring.Owner(id)
		if target == "" || target == n.cfg.Name {
			// Still ours (drain without ring removal): put it back.
			if _, err := n.tn.AdoptSessionDoc(doc); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := n.sendAdopt(ctx, target, doc); err != nil {
			n.logf("cluster: migrating session %s to %s: %v", id, target, err)
			if firstErr == nil {
				firstErr = err
			}
			// Park the snapshot locally as standby state: if the target is
			// the node adopting this id later, its retry path (or a
			// subsequent migration pass) can still find it here. The
			// standby table only holds sealed ships, so seal it.
			if ship, serr := n.seal(pki.LabelStandby, n.standbyTTL(), doc.Encode); serr == nil {
				n.putStandby(id, ship, lastSeq(doc))
			} else {
				n.logf("cluster: parking standby for %s: %v", id, serr)
			}
			continue
		}
		moved++
	}
	if m := n.metrics; m != nil && moved > 0 {
		m.Counter("cluster_migrations_total").Add(int64(moved))
	}
	return moved, firstErr
}

// sendAdopt posts one session ticket to the target node.
func (n *Node) sendAdopt(ctx context.Context, target string, doc *xmldom.Node) error {
	base := n.peerURL(target)
	if base == "" {
		return fmt.Errorf("cluster: no address for migration target %s", target)
	}
	ticket, err := n.seal(pki.LabelSession, n.ticketTTL(), doc.Encode)
	if err != nil {
		return err
	}
	_, err = n.transport.Call(ctx, http.MethodPost, base, "/cluster/adopt", "", ticket, true)
	return err
}

// handleAdopt opens and adopts a migrated session. An expired ticket is
// a distinct, typed, counted condition (410, not retryable), as it is
// for the client-side resume ticket.
func (n *Node) handleAdopt(w http.ResponseWriter, r *http.Request) {
	_, root, ok := readClusterBody(w, r, "sealed")
	if !ok {
		return
	}
	doc, err := n.openSession(root, pki.LabelSession)
	if err != nil {
		status, code := http.StatusBadRequest, "schema"
		switch {
		case errors.Is(err, pki.ErrTicketExpired):
			status, code = http.StatusGone, "ticket-expired"
			if m := n.metrics; m != nil {
				m.Counter("tn_ticket_expired_total").Inc()
			}
		case errors.Is(err, pki.ErrBadSignature):
			status, code = http.StatusForbidden, "ticket-signature"
		}
		writeClusterFault(w, status, code, err.Error())
		return
	}
	id, err := n.tn.AdoptSessionDoc(doc)
	if err != nil {
		writeWsrpcError(w, err)
		return
	}
	if m := n.metrics; m != nil {
		m.Counter("cluster_adoptions_total", "source", "migration").Inc()
	}
	writeClusterDOM(w, xmldom.NewElement("adopted").SetAttr("id", id))
}
