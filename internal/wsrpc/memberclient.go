package wsrpc

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"trustvo/internal/core"
	"trustvo/internal/negotiation"
	"trustvo/internal/vo/registry"
	"trustvo/internal/xmldom"
)

// timeNow is the package clock (overridable in tests).
var timeNow = time.Now

// MemberClient is the member-edition client of the toolkit service: it
// publishes the member's description, polls its mailbox, and joins VOs —
// directly (baseline) or through the integrated trust negotiation.
//
// Calls go through the hardened Transport (deadlines, retries on
// idempotent routes, circuit breaker); Join inherits the negotiation
// suspend/resume machinery of TNClient.
type MemberClient struct {
	BaseURL string
	Party   *negotiation.Party
	// Transport is the hardened call path; nil uses an owned default.
	Transport *Transport
	// NegotiationTimeout bounds a whole Join negotiation (0 = none).
	NegotiationTimeout time.Duration
	// ResumeTTL is the validity of Join suspend tickets (default 5m).
	ResumeTTL time.Duration

	owned atomic.Pointer[Transport]
}

func (c *MemberClient) transport() *Transport { return transportOr(c.Transport, &c.owned) }

// tnClient builds the negotiation client sharing this client's transport
// (so breaker state and metrics are common).
func (c *MemberClient) tnClient() *TNClient {
	return &TNClient{
		BaseURL:            c.BaseURL,
		Party:              c.Party,
		Transport:          c.transport(),
		NegotiationTimeout: c.NegotiationTimeout,
		ResumeTTL:          c.ResumeTTL,
	}
}

// expectRoot checks that the root element of a reply, whose start tag r
// has just read, is name.
func expectRoot(r *xmldom.Reader, name string) error {
	if r.Name() != name {
		return fmt.Errorf("wsrpc: expected <%s> response, got <%s>", name, r.Name())
	}
	return nil
}

// rootIs returns the decode of a reply that carries nothing but its root
// element's name.
func rootIs(name string) func(*xmldom.Reader) error {
	return func(r *xmldom.Reader) error { return expectRoot(r, name) }
}

// Publish registers the member's service description with the host
// edition (the preparation phase over the wire). Publishing is an
// upsert, hence retried freely.
func (c *MemberClient) Publish(ctx context.Context, d *registry.Description) error {
	_, err := c.transport().CallBody(ctx, http.MethodPost, c.BaseURL, "/registry/publish", "", xmldom.String(d.Encode), true, rootIs("published"))
	return err
}

// Apply requests an invitation for a role. It returns the invitation
// and the membership resource to negotiate for. Re-applying reissues
// the same invitation, so retries are safe.
func (c *MemberClient) Apply(ctx context.Context, role string) (inv *core.Invitation, resource string, err error) {
	query := "?provider=" + url.QueryEscape(c.Party.Name) + "&role=" + url.QueryEscape(role)
	_, err = c.transport().CallBody(ctx, http.MethodPost, c.BaseURL, "/vo/apply", query, "", true, func(r *xmldom.Reader) error {
		if err := expectRoot(r, "invitation"); err != nil {
			return err
		}
		inv, resource = decodeInvitation(r)
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	return inv, resource, nil
}

// Mailbox fetches the member's pending invitations.
func (c *MemberClient) Mailbox(ctx context.Context) (out []*core.Invitation, err error) {
	_, err = c.transport().CallBody(ctx, http.MethodGet, c.BaseURL, "/vo/mailbox", "?provider="+url.QueryEscape(c.Party.Name), "", true, func(r *xmldom.Reader) error {
		if err := expectRoot(r, "mailbox"); err != nil {
			return err
		}
		out = nil // a retried attempt reads the mailbox afresh
		for d := r.Depth(); r.Child(d); {
			if r.Name() == "invitation" {
				inv, _ := decodeInvitation(r)
				out = append(out, inv)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// JoinDirect performs the baseline join (no TN) and returns the X.509
// membership token DER. Admission mutates VO state, so it is never
// retried automatically.
func (c *MemberClient) JoinDirect(ctx context.Context, role string) (der []byte, err error) {
	query := "?provider=" + url.QueryEscape(c.Party.Name) + "&role=" + url.QueryEscape(role)
	_, err = c.transport().CallBody(ctx, http.MethodPost, c.BaseURL, "/vo/join-direct", query, "", false, func(r *xmldom.Reader) error {
		if err := expectRoot(r, "joined"); err != nil {
			return err
		}
		der, err = decodeJoined(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return der, nil
}

// Join performs the integrated join: apply for the role, then negotiate
// trust for the returned membership resource. On success the grant is
// the X.509 membership token DER (the Fig. 9 "Join with trust
// negotiation" path).
//
// A *SuspendedError (transport failure / deadline mid-negotiation)
// carries a ticket that ResumeJoin completes later.
func (c *MemberClient) Join(ctx context.Context, role string) ([]byte, *negotiation.Outcome, error) {
	_, resource, err := c.Apply(ctx, role)
	if err != nil {
		return nil, nil, err
	}
	if resource == "" {
		return nil, nil, fmt.Errorf("wsrpc: apply response without membership resource")
	}
	out, err := c.tnClient().Negotiate(ctx, resource)
	return grantOf(out, err)
}

// ResumeJoin continues a Join that was suspended mid-negotiation.
func (c *MemberClient) ResumeJoin(ctx context.Context, t *negotiation.ResumeTicket) ([]byte, *negotiation.Outcome, error) {
	out, err := c.tnClient().Resume(ctx, t)
	return grantOf(out, err)
}

func grantOf(out *negotiation.Outcome, err error) ([]byte, *negotiation.Outcome, error) {
	if err != nil {
		return nil, nil, err
	}
	if !out.Succeeded {
		return nil, out, fmt.Errorf("wsrpc: admission negotiation failed: %s", out.Reason)
	}
	return out.Grant, out, nil
}

// VOStatus fetches the VO's phase and member count. A reply whose
// member count is missing or not a decimal count fails the call.
func (c *MemberClient) VOStatus(ctx context.Context) (phase string, members int, err error) {
	_, err = c.transport().CallBody(ctx, http.MethodGet, c.BaseURL, "/vo/status", "", "", true, func(r *xmldom.Reader) (err error) {
		phase, members, err = decodeVOStatus(r)
		return err
	})
	if err != nil {
		return "", 0, err
	}
	return phase, members, nil
}

// Members lists the admitted members.
func (c *MemberClient) Members(ctx context.Context) (out map[string]string, err error) {
	_, err = c.transport().CallBody(ctx, http.MethodGet, c.BaseURL, "/vo/members", "", "", true, func(r *xmldom.Reader) (err error) {
		out, err = decodeMembers(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Operate asks the toolkit to authorize an operation invocation. Each
// call lands in the audit log, so it is not retried automatically.
func (c *MemberClient) Operate(ctx context.Context, operation string) error {
	query := "?member=" + url.QueryEscape(c.Party.Name) + "&operation=" + url.QueryEscape(operation)
	_, err := c.transport().CallBody(ctx, http.MethodPost, c.BaseURL, "/vo/operate", query, "", false, rootIs("authorized"))
	return err
}

// ReportViolation reports another member's violation (never retried:
// a duplicate report would double the reputation penalty).
func (c *MemberClient) ReportViolation(ctx context.Context, member, operation, detail string, weight float64) error {
	query := "?detail=" + url.QueryEscape(detail) + "&member=" + url.QueryEscape(member) +
		"&operation=" + url.QueryEscape(operation) + "&weight=" + url.QueryEscape(fmt.Sprintf("%g", weight))
	_, err := c.transport().CallBody(ctx, http.MethodPost, c.BaseURL, "/vo/violation", query, "", false, rootIs("recorded"))
	return err
}

// Phase asks the toolkit to advance the VO lifecycle; target is
// "formation", "operation" or "dissolution". Lifecycle transitions are
// one-shot, so the call is not retried automatically.
func (c *MemberClient) Phase(ctx context.Context, target string) error {
	path := map[string]string{
		"formation":   "/vo/start-formation",
		"operation":   "/vo/start-operation",
		"dissolution": "/vo/dissolve",
	}[target]
	if path == "" {
		return fmt.Errorf("wsrpc: unknown phase %q", target)
	}
	_, err := c.transport().CallBody(ctx, http.MethodPost, c.BaseURL, path, "", "", false, rootIs("ok"))
	return err
}

// AuditEntry mirrors vo.AuditEntry for the client side.
type AuditEntry struct {
	Member    string
	Operation string
	Allowed   bool
	Detail    string
	At        time.Time
}

// Audit fetches the VO's interaction log (monitoring, §2). A reply with
// an entry whose time is missing or not RFC 3339 fails the call.
func (c *MemberClient) Audit(ctx context.Context) (out []AuditEntry, err error) {
	_, err = c.transport().CallBody(ctx, http.MethodGet, c.BaseURL, "/vo/audit", "", "", true, func(r *xmldom.Reader) (err error) {
		out, err = decodeAudit(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Reputation fetches a member's reputation score. A reply whose score
// is missing or not a number fails the call.
func (c *MemberClient) Reputation(ctx context.Context, member string) (score float64, err error) {
	_, err = c.transport().CallBody(ctx, http.MethodGet, c.BaseURL, "/vo/reputation", "?member="+url.QueryEscape(member), "", true, func(r *xmldom.Reader) (err error) {
		score, err = decodeReputation(r)
		return err
	})
	if err != nil {
		return 0, err
	}
	return score, nil
}
