package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xmldom"
)

// maxClusterBody bounds cluster RPC bodies. Replication snapshots carry
// a whole store, so the bound is far above the TN envelope limit, which
// bounds the exchange bodies clients send (wsrpc.MaxBody).
const maxClusterBody = 64 << 20

// Register mounts the node's routed TN operations and its cluster RPCs
// on mux. The TN routes wrap the service's own handlers with ring
// routing (forward or redirect misrouted sessions), failover adoption,
// and the capacity gate.
func (n *Node) Register(mux *http.ServeMux) {
	inner := http.NewServeMux()
	n.tn.Register(inner)
	mux.HandleFunc("/tn/start", func(w http.ResponseWriter, r *http.Request) {
		// Start is always local: the id minter only issues ids this node
		// owns, so the session is born routed.
		n.gateServe(inner.ServeHTTP, w, r)
	})
	mux.HandleFunc("/tn/policyExchange", n.routeExchange(inner, "/tn/policyExchange"))
	mux.HandleFunc("/tn/credentialExchange", n.routeExchange(inner, "/tn/credentialExchange"))
	mux.HandleFunc("/tn/status", n.routeStatus(inner))
	mux.HandleFunc("/cluster/standby", n.handleStandby)
	mux.HandleFunc("/cluster/replicate", n.handleApply("replicate", "from", n.applyEntriesAt))
	mux.HandleFunc("/cluster/catchup", n.handleApply("catchup", "pos", n.applySnapshotAt))
	mux.HandleFunc("/cluster/status", n.handleClusterStatus)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	if n.metrics != nil {
		mux.Handle("/metrics", n.metrics.Handler())
	}
}

// gateServe runs a local TN handler under the node's capacity model:
// acquire a slot (honest 503 backpressure when the request dies waiting)
// and hold it for at least ServiceFloor.
func (n *Node) gateServe(h http.HandlerFunc, w http.ResponseWriter, r *http.Request) {
	if n.gate != nil {
		select {
		case n.gate <- struct{}{}:
			defer func() { <-n.gate }()
		case <-r.Context().Done():
			w.Header().Set("Retry-After", "1")
			writeClusterFault(w, http.StatusServiceUnavailable, "capacity", "node at capacity")
			return
		}
	}
	start := time.Now()
	h(w, r)
	if floor := n.cfg.ServiceFloor; floor > 0 {
		if rem := floor - time.Since(start); rem > 0 {
			t := time.NewTimer(rem)
			defer t.Stop()
			select {
			case <-t.C:
			case <-r.Context().Done():
			}
		}
	}
}

// routeExchange routes one TN exchange operation by the envelope's
// session id: the ring owner serves it (adopting standby state or
// materializing a fresh session when failover moved the id here), other
// owners get the body forwarded as received or the client redirected.
// The body is read and decoded here, once: the service gets the decoded
// envelope, or the schema error it answers with.
func (n *Node) routeExchange(inner http.Handler, path string) http.HandlerFunc {
	serve := n.tn.ExchangeHandler(path)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			n.gateServe(inner.ServeHTTP, w, r) // the service's 405
			return
		}
		// An exchange body is read as the TN service reads it, cut at its
		// envelope limit: an oversized body costs no more here than there.
		raw, err := wsrpc.ReadBody(r.Body, wsrpc.MaxBody)
		r.Body.Close() // read once: net/http then has nothing left to drain
		if err != nil {
			writeClusterFault(w, http.StatusBadRequest, "parse", err.Error())
			return
		}
		env, err := wsrpc.DecodeEnvelope(raw)
		if err != nil {
			// The TN handler would fail the same way and answer so.
			writeClusterFault(w, http.StatusBadRequest, "parse", err.Error())
			return
		}
		if id := env.ID; id != "" {
			owner := n.ring.Owner(id)
			if owner != "" && owner != n.cfg.Name {
				n.forwardOrRedirect(w, r, owner, path, r.URL.RawQuery, raw)
				return
			}
			if !n.tn.HasSession(id) {
				if !n.materializeSession(w, r, id, env.Type) {
					return
				}
			}
		}
		n.gateServe(func(w http.ResponseWriter, r *http.Request) { serve(w, r, env) }, w, r)
	}
}

// materializeSession makes an owned-but-absent session serveable:
// adopt the freshest standby copy (findStandby); otherwise a first
// message ("request") gets a fresh endpoint — /tn/start assigns an id
// and nothing more, so nothing is lost when the starting node died
// before any exchange. Anything else is answered with a retryable 503:
// by the acked-implies-shipped invariant the standby copy exists
// somewhere and a later ship will surface it. Reports whether the
// request should proceed to the local service.
func (n *Node) materializeSession(w http.ResponseWriter, r *http.Request, id, msgType string) bool {
	if doc, ok := n.findStandby(r.Context(), id); ok {
		return n.adopt(w, doc)
	}
	if msgType == negotiation.MsgRequest.String() {
		if err := n.tn.EnsureSession(id); err != nil {
			writeWsrpcError(w, err)
			return false
		}
		return true
	}
	n.sessionUnavailable(w, id)
	return false
}

// adopt makes a standby copy, its session document, a live session here,
// answering the request with the error when the service refuses it.
// Reports whether the request should proceed to the local service.
func (n *Node) adopt(w http.ResponseWriter, doc string) bool {
	id, err := n.tn.AdoptSessionDoc(doc)
	if err != nil {
		writeWsrpcError(w, err)
		return false
	}
	if m := n.metrics; m != nil {
		m.Counter("cluster_adoptions_total", "source", "standby").Inc()
	}
	n.logf("cluster: node %s adopted session %s from standby", n.cfg.Name, id)
	return true
}

// sessionUnavailable answers an exchange for a session not held here
// with a retryable 503. It is also the TN service's SessionMissing hook:
// a session routed here can be drained or handed over before the
// handler runs, and the client's retry follows it to its new holder.
func (n *Node) sessionUnavailable(w http.ResponseWriter, id string) {
	w.Header().Set("Retry-After", "1")
	writeClusterFault(w, http.StatusServiceUnavailable, "session-unavailable",
		"session "+id+" not yet available on this node")
}

// routeStatus routes GET /tn/status by its negotiation query parameter.
// An owned session the table lacks is served from the standby copy this
// node holds, adopted as an exchange would adopt it: after a failover
// or a drain the owner is the node holding the copy. Peers are not
// asked, so a GET for an unknown id costs no peer requests.
func (n *Node) routeStatus(inner http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("negotiation")
		if id != "" {
			owner := n.ring.Owner(id)
			if owner != "" && owner != n.cfg.Name {
				n.forwardOrRedirect(w, r, owner, "/tn/status", r.URL.RawQuery, "")
				return
			}
			if !n.tn.HasSession(id) {
				if doc, _, ok := n.takeStandby(id); ok && !n.adopt(w, doc) {
					return
				}
			}
		}
		inner.ServeHTTP(w, r)
	}
}

// forwardOrRedirect hands a misrouted request to its owner: server-side
// proxying through the hardened transport by default, or a 307 redirect
// when the node is configured to push the hop back to the client (the
// client re-POSTs the identical body, and the at-most-once envelope
// sequence makes the extra delivery safe either way).
func (n *Node) forwardOrRedirect(w http.ResponseWriter, r *http.Request, owner, path, rawQuery, body string) {
	base := n.peerURL(owner)
	if base == "" {
		w.Header().Set("Retry-After", "1")
		writeClusterFault(w, http.StatusServiceUnavailable, "no-route", "no address for session owner "+owner)
		return
	}
	target := base + path
	if rawQuery != "" {
		target += "?" + rawQuery
	}
	if n.cfg.Redirect {
		if m := n.metrics; m != nil {
			m.Counter("cluster_redirects_total", "route", path).Inc()
		}
		http.Redirect(w, r, target, http.StatusTemporaryRedirect)
		return
	}
	if m := n.metrics; m != nil {
		m.Counter("cluster_forwards_total", "route", path).Inc()
	}
	query := ""
	if rawQuery != "" {
		query = "?" + rawQuery
	}
	// The owner's reply is relayed as received: CallBody checks that it is
	// well-formed and builds nothing from it.
	reply, err := n.transport.CallBody(r.Context(), r.Method, base, path, query, body, true, nil)
	if err != nil {
		writeWsrpcError(w, err)
		return
	}
	writeClusterXML(w, reply)
}

// --- cluster RPC handlers ---

// findStandby returns the session document of the freshest standby copy
// of session id among the one held here and every peer's: the ring
// successor is the designated holder, but a copy can also sit as a live
// session a peer adopted or held while the ring moved the id on, which
// that peer hands over (handOver). Copies rank by the last message
// sequence they cover, so a ship left behind by an earlier ring never
// wins over a fresher one. Only owners missing a session ask, so the
// fan-out stays off the per-message path.
func (n *Node) findStandby(ctx context.Context, id string) (string, bool) {
	best, bestSeq, found := n.takeStandby(id)
	for _, peer := range n.ring.Nodes() {
		if peer == n.cfg.Name {
			continue
		}
		if doc, seq, ok := n.fetchStandby(ctx, peer, id); ok && (!found || seq > bestSeq) {
			best, bestSeq, found = doc, seq, true
		}
	}
	return best, found
}

// fetchStandby asks peer for its standby copy of session id and returns
// its session document and last sequence. The miss path (404) is cheap
// and non-retried.
func (n *Node) fetchStandby(ctx context.Context, peer, id string) (string, int64, bool) {
	base := n.peerURL(peer)
	if base == "" {
		return "", 0, false
	}
	ship, err := n.transport.CallBody(ctx, http.MethodGet, base, "/cluster/standby", "?negotiation="+url.QueryEscape(id), "", true, nil)
	if err != nil {
		return "", 0, false
	}
	return n.openStandby(ship, id)
}

// handOver turns a live session this node holds but no longer owns into
// a standby ship held here, for the owner's fetch to find, and returns
// the ship. Such a session started or was adopted here before the ring
// moved its id on; without the hand-over it would wait here,
// unreachable, until it expired.
func (n *Node) handOver(id string) (string, bool) {
	if owner := n.ring.Owner(id); n.keys == nil || owner == "" || owner == n.cfg.Name {
		return "", false
	}
	encode := n.tn.ReleaseSession(id)
	if encode == nil {
		return "", false
	}
	ship, err := n.seal(encode)
	if err != nil {
		return "", false
	}
	_, _, seq, err := n.shipHead(ship)
	if err != nil {
		return "", false
	}
	n.logf("cluster: node %s handed session %s over to its owner", n.cfg.Name, id)
	return n.putStandby(id, ship, seq), true
}

// handleStandby accepts a predecessor's per-message session snapshot
// (POST), and shows a held snapshot to a session owner that lacks the
// session (GET) — the recovery path for a revived owner whose sessions
// saw no traffic while it was down. The GET leaves the copy in place: a
// reply lost on the way must not lose the session with it, and the
// owner ranks copies by freshness.
func (n *Node) handleStandby(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		id := r.URL.Query().Get("negotiation")
		now := time.Now()
		n.mu.Lock() //lint:allow nakedlock response write below must run outside the lock
		d, held := n.standby[id]
		// A snapshot past the table TTL is shown to no one and dropped:
		// the TTL bounds how stale an adopted state can be, the same rule
		// takeStandby applies to the local adoption path.
		if held && now.Sub(d.at) > standbyTTL {
			delete(n.standby, id)
			held = false
		}
		n.mu.Unlock()
		xml := d.xml
		if !held && id != "" {
			xml, held = n.handOver(id)
		}
		if !held {
			writeClusterFault(w, http.StatusNotFound, "standby", "no standby snapshot for "+id)
			return
		}
		// The table holds the sealed ship exactly as shipped, so the
		// requester opens what we stored.
		writeClusterXML(w, xml)
		return
	}
	raw, ok := readClusterRaw(w, r)
	if !ok {
		return
	}
	_, id, seq, err := n.shipHead(raw)
	if err != nil {
		status, code := n.rejectStandby(err)
		writeClusterFault(w, status, code, err.Error())
		return
	}
	// The table holds the body as received: it opened, and it opens
	// again at the point of use.
	n.putStandby(id, raw, seq)
	writeClusterXML(w, xmldom.String(func(xw *xmldom.Writer) {
		xw.Start("standbyAck")
		xw.Attr("id", id)
		xw.End()
	}))
}

// refusal maps the error that refused a sealed cluster body, a standby
// ship or a replication frame of the given kind, to the status and fault
// code its ingress answers with and the reason it is counted under: 410
// expired, 403 a bad tag, and 400 anything else (unsealed, malformed, or
// sealed for another label).
func refusal(err error, kind string) (status int, code, reason string) {
	switch {
	case errors.Is(err, pki.ErrTicketExpired):
		return http.StatusGone, kind + "-expired", "expired"
	case errors.Is(err, pki.ErrBadSignature):
		return http.StatusForbidden, kind + "-signature", "signature"
	}
	return http.StatusBadRequest, "schema", "schema"
}

// rejectStandby counts a refused standby snapshot by reason and returns
// the status and fault code the POST ingress answers it with.
func (n *Node) rejectStandby(err error) (status int, code string) {
	status, code, reason := refusal(err, "standby")
	if m := n.metrics; m != nil {
		m.Counter("cluster_standby_rejects_total", "reason", reason).Inc()
	}
	return status, code
}

// rejectReplicate counts a refused replication frame by reason and
// returns the status and fault code its POST is answered with.
func (n *Node) rejectReplicate(err error) (status int, code string) {
	status, code, reason := refusal(err, "replicate")
	if m := n.metrics; m != nil {
		m.Counter("cluster_replicate_rejects_total", "reason", reason).Inc()
	}
	return status, code
}

// handleApply answers a leader's replication POST: a frame sealed under
// the cluster key (pki.LabelReplicate) around <want epoch at> and the
// base64 of its entries' WAL frames, a window of its log (<replicate
// from>, applyEntriesAt) or a snapshot (<catchup pos>, applySnapshotAt).
// The frame writes the store the TN service reloads the party from, so
// nothing of the body is read before its seal opens, as received. Then
// the payload is read (decodeFrame): a syntax error anywhere is a parse
// fault, then another root element, or an epoch or position that is not
// a decimal count, a schema fault.
func (n *Node) handleApply(want, at string, apply func(epoch, pos uint64, entries []store.Entry) (uint64, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw, ok := readClusterRaw(w, r)
		if !ok {
			return
		}
		doc, err := pki.OpenWire(n.keys, raw, pki.LabelReplicate, time.Now())
		if err != nil {
			status, code := n.rejectReplicate(err)
			writeClusterFault(w, status, code, err.Error())
			return
		}
		f, perr, err := decodeFrame(doc, want, at)
		if perr != nil {
			writeClusterFault(w, http.StatusBadRequest, "parse", perr.Error())
			return
		}
		if err != nil {
			writeClusterFault(w, http.StatusBadRequest, "schema", err.Error())
			return
		}
		if err := n.checkEpoch(f.epoch); err != nil {
			writeClusterFault(w, http.StatusConflict, "stale-epoch", err.Error())
			return
		}
		entries, err := decodePayload(f.frames)
		if err != nil {
			writeClusterFault(w, http.StatusBadRequest, "payload", err.Error())
			return
		}
		applied, err := apply(f.epoch, f.pos, entries)
		if err != nil {
			writeClusterFault(w, http.StatusInternalServerError, "apply", err.Error())
			return
		}
		rep := replicated{applied: applied, epoch: n.repl.epoch.Load(), lineage: n.Lineage()}
		writeClusterXML(w, xmldom.String(rep.encode))
	}
}

// handleClusterStatus reports the node's replication state.
func (n *Node) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	st := n.status()
	writeClusterXML(w, xmldom.String(st.encode))
}

// readClusterRaw reads a POSTed cluster RPC body as received, writing
// the fault itself when the request is unusable.
func readClusterRaw(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		writeClusterFault(w, http.StatusMethodNotAllowed, "method", "POST required")
		return "", false
	}
	raw, err := wsrpc.ReadBody(r.Body, maxClusterBody)
	r.Body.Close()
	if err != nil {
		writeClusterFault(w, http.StatusBadRequest, "parse", err.Error())
		return "", false
	}
	return raw, true
}

// writeClusterFault emits a wsrpc <fault> with the given status.
func writeClusterFault(w http.ResponseWriter, status int, code, detail string) {
	wsrpc.SetContentType(w.Header())
	w.WriteHeader(status)
	io.WriteString(w, (&wsrpc.Fault{Code: code, Detail: detail}).XML())
}

// writeClusterXML emits a serialized XML document with status 200.
func writeClusterXML(w http.ResponseWriter, xml string) {
	wsrpc.SetContentType(w.Header())
	io.WriteString(w, xml)
}

// writeWsrpcError relays a typed transport or service error to the
// client, preserving status, fault code and retry hints so the caller's
// retry/suspend machinery classifies the failure exactly as a direct hit
// would. Untyped errors become a retryable 502.
func writeWsrpcError(w http.ResponseWriter, err error) {
	var werr *wsrpc.Error
	if errors.As(err, &werr) {
		if werr.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(werr.RetryAfter/time.Second)))
		} else if werr.Temporary {
			w.Header().Set("Retry-After", "1")
		}
		status := werr.Status
		if status == 0 {
			status = http.StatusBadGateway
		}
		code := werr.Code
		if code == "" {
			code = "forward"
		}
		writeClusterFault(w, status, code, err.Error())
		return
	}
	w.Header().Set("Retry-After", "1")
	writeClusterFault(w, http.StatusBadGateway, "forward", err.Error())
}
