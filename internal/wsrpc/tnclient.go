package wsrpc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/xmldom"
)

// TNClient drives a requester-side negotiation against a remote
// TNService, mirroring the paper's ClientWS.java ("A client application
// has also been developed … implementing the negotiation protocol by
// invoking the Web service's operations").
//
// All calls go through the hardened Transport: per-request deadlines,
// retries with backoff on transient failures, and a per-endpoint circuit
// breaker. Every exchange envelope carries a client sequence number; the
// service replays its cached reply for a repeated number, so retries and
// duplicated deliveries are applied at most once. When the transport
// fails for good (or the negotiation deadline expires) mid-negotiation,
// Negotiate returns a *SuspendedError carrying a resume ticket;
// Resume continues from it.
type TNClient struct {
	// BaseURL of the counterpart's TN service, e.g. "http://host:8080".
	BaseURL string
	// Party is the local (requester) negotiation identity.
	Party *negotiation.Party
	// Transport is the hardened call path; nil uses an owned default.
	Transport *Transport
	// NegotiationTimeout bounds one whole Negotiate/Resume run (all
	// rounds); 0 means no per-negotiation deadline.
	NegotiationTimeout time.Duration
	// ResumeTTL is the validity of suspend tickets (default 5m).
	ResumeTTL time.Duration

	seq   atomic.Int64
	owned atomic.Pointer[Transport]
}

func (c *TNClient) transport() *Transport { return transportOr(c.Transport, &c.owned) }

// nextSeq issues a fresh envelope sequence number.
func (c *TNClient) nextSeq() int64 { return c.seq.Add(1) }

// bumpSeq ensures future sequence numbers stay above n (used when
// resuming from a ticket minted by an earlier client instance).
func (c *TNClient) bumpSeq(n int64) {
	for {
		cur := c.seq.Load()
		if cur >= n || c.seq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// negotiationCtx applies the per-negotiation deadline.
func (c *TNClient) negotiationCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxpropagate defensive default for nil-ctx callers
	}
	if c.NegotiationTimeout > 0 {
		return context.WithTimeout(ctx, c.NegotiationTimeout)
	}
	return ctx, func() {}
}

// Start invokes StartNegotiation and returns the negotiation id.
func (c *TNClient) Start(ctx context.Context, resource string) (string, error) {
	// Starting is idempotent in effect: a retried start at worst leaves an
	// orphan session that the service sweeps out.
	var id string
	_, err := c.transport().CallBody(ctx, http.MethodPost, c.BaseURL, "/tn/start", "",
		startRequestXML(c.Party.Strategy.String(), resource), true, func(r *xmldom.Reader) (err error) {
			id, err = startReply(r)
			return err
		})
	if err != nil {
		return "", err
	}
	return id, nil
}

// startReply decodes the StartNegotiation reply whose root start tag r
// has just read: the negotiation id.
func startReply(r *xmldom.Reader) (string, error) {
	if r.Name() != "startNegotiationResponse" {
		return "", fmt.Errorf("wsrpc: expected <startNegotiationResponse> response, got <%s>", r.Name())
	}
	id := r.AttrOr("negotiation", "")
	if id == "" {
		return "", fmt.Errorf("wsrpc: start response without negotiation id")
	}
	return id, nil
}

// Exchange posts one TN message and returns the counterpart's reply
// (nil when the response was a terminal status acknowledgment).
func (c *TNClient) Exchange(ctx context.Context, negID string, msg *negotiation.Message) (*negotiation.Message, error) {
	return c.exchangeSeq(ctx, negID, msg, c.nextSeq())
}

// exchangeSeq is Exchange under an explicit sequence number; retries
// (and ticket resumption) reuse the number so the service's reply cache
// deduplicates.
func (c *TNClient) exchangeSeq(ctx context.Context, negID string, msg *negotiation.Message, seq int64) (*negotiation.Message, error) {
	path := "/tn/credentialExchange"
	if phaseOf(msg.Type) == policyPhase {
		path = "/tn/policyExchange"
	}
	var reply *negotiation.Message
	_, err := c.transport().CallBody(ctx, http.MethodPost, c.BaseURL, path, "",
		envelopeXML(negID, seq, msg), true, func(r *xmldom.Reader) (err error) {
			reply, err = exchangeReply(r)
			return err
		})
	return reply, err
}

// exchangeReply decodes the exchange reply whose root start tag r has
// just read: the counterpart's message, or nil for the status that
// acknowledges a terminal message.
func exchangeReply(r *xmldom.Reader) (*negotiation.Message, error) {
	switch r.Name() {
	case "status":
		return nil, nil // server consumed a terminal message
	case "envelope":
		var env Envelope
		env.decode(r)
		return env.Message, env.Err
	default:
		return nil, fmt.Errorf("wsrpc: unexpected response <%s>", r.Name())
	}
}

// Negotiate runs a complete negotiation for resource against the remote
// controller and returns the local outcome. This is the standalone-TN
// path measured by Fig. 9's "trust negotiation" bar.
//
// On an unrecoverable transport failure (or expiry of the negotiation
// deadline) mid-negotiation, the error is a *SuspendedError whose Ticket
// resumes the negotiation via Resume.
func (c *TNClient) Negotiate(ctx context.Context, resource string) (*negotiation.Outcome, error) {
	ctx, cancel := c.negotiationCtx(ctx)
	defer cancel()
	negID, err := c.Start(ctx, resource)
	if err != nil {
		return nil, err
	}
	ep := negotiation.NewRequester(c.Party, resource)
	msg, err := ep.Start()
	if err != nil {
		return nil, err
	}
	return c.drive(ctx, negID, ep, msg, 0)
}

// Resume continues a negotiation from a suspend ticket: the endpoint is
// restored from the snapshot and the unacknowledged message is re-sent
// under its original sequence number — the service's reply cache turns
// that into "deliver once", whether or not the first delivery arrived.
func (c *TNClient) Resume(ctx context.Context, t *negotiation.ResumeTicket) (*negotiation.Outcome, error) {
	if err := c.verifyTicket(t); err != nil {
		return nil, err
	}
	ep, err := negotiation.RestoreEndpoint(c.Party, t.State)
	if err != nil {
		return nil, err
	}
	c.bumpSeq(t.Seq)
	if tr := c.transport(); tr.Metrics != nil {
		tr.Metrics.Counter("tn_resumes_total").Inc()
	}
	ctx, cancel := c.negotiationCtx(ctx)
	defer cancel()
	return c.drive(ctx, t.NegID, ep, t.LastSent, t.Seq)
}

// verifyTicket checks t for this client's party. An expired ticket is a
// typed 410 (not retryable) and counted, so a fleet resuming from stale
// tickets after an outage shows up in telemetry, not as generic errors.
func (c *TNClient) verifyTicket(t *negotiation.ResumeTicket) error {
	if t == nil {
		return fmt.Errorf("wsrpc: nil resume ticket")
	}
	err := t.Verify(c.Party.Keys, time.Now())
	if errors.Is(err, pki.ErrTicketExpired) {
		if tr := c.transport(); tr.Metrics != nil {
			tr.Metrics.Counter("tn_ticket_expired_total").Inc()
		}
		return &Error{Op: "resume", Status: http.StatusGone, Code: "ticket-expired", Err: err}
	}
	return err
}

// drive is the shared request loop: send msg, feed the reply to the
// endpoint, repeat. seq carries the pre-assigned sequence number of the
// first send (0 = assign fresh); replies always get fresh numbers.
func (c *TNClient) drive(ctx context.Context, negID string, ep *negotiation.Endpoint, msg *negotiation.Message, seq int64) (*negotiation.Outcome, error) {
	for msg != nil {
		if seq == 0 {
			seq = c.nextSeq()
		}
		reply, err := c.exchangeSeq(ctx, negID, msg, seq)
		if err != nil {
			if suspendable(err) && !ep.Done() {
				return nil, c.suspend(negID, ep, msg, seq, err)
			}
			return nil, err
		}
		seq = 0
		if reply == nil {
			break // server acknowledged our terminal message
		}
		msg, err = ep.Handle(reply)
		if err != nil {
			return nil, err
		}
	}
	if !ep.Done() {
		return nil, fmt.Errorf("wsrpc: negotiation %s ended without outcome", negID)
	}
	return ep.Outcome(), nil
}

// suspend converts a transport failure into a *SuspendedError carrying a
// resume ticket; when snapshotting is impossible the original error is
// returned unchanged.
func (c *TNClient) suspend(negID string, ep *negotiation.Endpoint, pending *negotiation.Message, seq int64, cause error) error {
	t, err := negotiation.NewResumeTicket(ep, negID, seq, pending, c.ResumeTTL)
	if err != nil {
		return cause
	}
	if tr := c.transport(); tr.Metrics != nil {
		tr.Metrics.Counter("tn_suspends_total").Inc()
	}
	return &SuspendedError{Ticket: t, Err: cause}
}

// Status queries the remote side's view of a negotiation.
func (c *TNClient) Status(ctx context.Context, negID string) (done, succeeded bool, reason string, err error) {
	_, err = c.transport().CallBody(ctx, http.MethodGet, c.BaseURL, "/tn/status",
		"?negotiation="+url.QueryEscape(negID), "", true, func(r *xmldom.Reader) error {
			if r.Name() != "status" {
				return fmt.Errorf("wsrpc: expected <status> response, got <%s>", r.Name())
			}
			done, succeeded = r.AttrOr("done", "") == "true", r.AttrOr("succeeded", "") == "true"
			reason = r.AttrOr("reason", "")
			return nil
		})
	if err != nil {
		return false, false, "", err
	}
	return done, succeeded, reason, nil
}

// SuspendedError reports a negotiation interrupted by transport failure
// or deadline expiry; Ticket resumes it (TNClient.Resume /
// MemberClient.ResumeJoin).
type SuspendedError struct {
	Ticket *negotiation.ResumeTicket
	Err    error
}

// Error implements error.
func (e *SuspendedError) Error() string {
	return fmt.Sprintf("wsrpc: negotiation %s suspended (resumable): %v", e.Ticket.NegID, e.Err)
}

// Unwrap exposes the cause.
func (e *SuspendedError) Unwrap() error { return e.Err }
