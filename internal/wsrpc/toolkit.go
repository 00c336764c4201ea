package wsrpc

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"trustvo/internal/core"
	"trustvo/internal/vo"
	"trustvo/internal/vo/registry"
	"trustvo/internal/xmldom"
)

// ToolkitService exposes a VO Initiator (internal/core) as the VO
// Management toolkit of §6.1. It bundles the three editions:
//
//   - Host edition (member registration and VO monitoring):
//     POST /registry/publish, GET /registry/list, GET /registry/find,
//     GET /vo/status, GET /vo/members
//   - Initiator edition (create/invite/assign):
//     POST /vo/invite, POST /vo/start-formation, POST /vo/start-operation,
//     POST /vo/dissolve, POST /vo/join-direct (pre-integration baseline)
//   - Member edition (mailbox, participation):
//     GET /vo/mailbox, POST /vo/apply
//
// plus the integrated TN service mounted under /tn/ for membership
// negotiations ("the TN system is integrated as part of the VO
// Management tool, and invoked as a web service when needed", §6).
type ToolkitService struct {
	Initiator *core.Initiator
	TN        *TNService

	agentsMu sync.Mutex                   // handlers run concurrently
	agents   map[string]*core.MemberAgent // server-side mailboxes by provider
}

// NewToolkitService wraps an initiator. The TN service negotiates as the
// initiator's party, so successful membership negotiations admit the
// peer via the initiator's Grant hook.
func NewToolkitService(ini *core.Initiator) *ToolkitService {
	return &ToolkitService{
		Initiator: ini,
		TN:        NewTNService(ini.Party),
		agents:    make(map[string]*core.MemberAgent),
	}
}

// Register mounts all operations on mux. Toolkit routes share the TN
// service's metrics registry, so one /metrics scrape covers the whole
// deployment.
func (t *ToolkitService) Register(mux *http.ServeMux) {
	t.TN.Register(mux)
	reg := t.TN.Metrics
	handle := func(route string, h http.HandlerFunc) {
		mux.HandleFunc(route, instrument(reg, route, h))
	}
	handle("/registry/publish", t.handlePublish)
	handle("/registry/list", t.handleList)
	handle("/registry/find", t.handleFind)
	handle("/vo/apply", t.handleApply)
	handle("/vo/mailbox", t.handleMailbox)
	handle("/vo/join-direct", t.handleJoinDirect)
	handle("/vo/members", t.handleMembers)
	handle("/vo/status", t.handleStatus)
	handle("/vo/start-formation", t.lifecycleHandler(func() error { return t.Initiator.VO.StartFormation() }))
	handle("/vo/start-operation", t.lifecycleHandler(func() error { return t.Initiator.VO.StartOperation() }))
	handle("/vo/dissolve", t.lifecycleHandler(func() error { return t.Initiator.VO.Dissolve() }))
	handle("/vo/operate", t.handleOperate)
	handle("/vo/violation", t.handleViolation)
	handle("/vo/reputation", t.handleReputation)
	handle("/vo/audit", t.handleAudit)
}

// agentFor returns (creating on demand) the server-side mailbox agent
// for a published provider.
func (t *ToolkitService) agentFor(provider string) (*core.MemberAgent, error) {
	desc := t.Initiator.Registry.Lookup(provider)
	if desc == nil {
		return nil, fmt.Errorf("provider %q has not published a service description", provider)
	}
	t.agentsMu.Lock()
	defer t.agentsMu.Unlock()
	if a, ok := t.agents[provider]; ok {
		return a, nil
	}
	a := core.NewMemberAgent(nil, desc)
	t.agents[provider] = a
	return a, nil
}

func (t *ToolkitService) handlePublish(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeFault(w, http.StatusMethodNotAllowed, "method", "POST required")
		return
	}
	raw, err := ReadBody(r.Body, MaxBody)
	r.Body.Close()
	if err != nil {
		writeFault(w, http.StatusBadRequest, "parse", err.Error())
		return
	}
	// A syntax error anywhere in the body wins over a schema error.
	rd := xmldom.NewReader(raw)
	var desc *registry.Description
	if rd.Child(0) {
		desc, err = registry.DecodeDescription(rd)
	}
	if err := rd.Close(); err != nil {
		writeFault(w, http.StatusBadRequest, "parse", err.Error())
		return
	}
	if err != nil {
		writeFault(w, http.StatusBadRequest, "schema", err.Error())
		return
	}
	if err := t.Initiator.Registry.Publish(desc); err != nil {
		writeFault(w, http.StatusBadRequest, "registry", err.Error())
		return
	}
	writeRaw(w, http.StatusOK, xmldom.String(func(w *xmldom.Writer) {
		w.Start("published")
		w.Attr("provider", desc.Provider)
		w.End()
	}))
}

func (t *ToolkitService) handleList(w http.ResponseWriter, r *http.Request) {
	writeRaw(w, http.StatusOK, xmldom.String(func(w *xmldom.Writer) { encodeDescriptions(w, t.Initiator.Registry.All()) }))
}

func (t *ToolkitService) handleFind(w http.ResponseWriter, r *http.Request) {
	found := t.Initiator.Registry.FindByCapabilities(r.URL.Query()["capability"])
	writeRaw(w, http.StatusOK, xmldom.String(func(w *xmldom.Writer) { encodeDescriptions(w, found) }))
}

// encodeDescriptions writes the reply of /registry/list and
// /registry/find: <descriptions>, each description's own layout inside.
func encodeDescriptions(w *xmldom.Writer, ds []*registry.Description) {
	w.Start("descriptions")
	for _, d := range ds {
		d.Encode(w)
	}
	w.End()
}

// handleApply lets a published provider request an invitation for a role
// ("the list of services that … are waiting for an invitation", §6.1).
// The invitation lands in the provider's server-side mailbox and is
// returned; the provider then either joins directly or negotiates for
// the returned membership resource via /tn/.
func (t *ToolkitService) handleApply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeFault(w, http.StatusMethodNotAllowed, "method", "POST required")
		return
	}
	q := r.URL.Query()
	provider, role := q.Get("provider"), q.Get("role")
	if provider == "" || role == "" {
		writeFault(w, http.StatusBadRequest, "params", "provider and role required")
		return
	}
	if t.Initiator.VO.Contract.Role(role) == nil {
		writeFault(w, http.StatusNotFound, "role", "unknown role "+role)
		return
	}
	agent, err := t.agentFor(provider)
	if err != nil {
		writeFault(w, http.StatusNotFound, "registry", err.Error())
		return
	}
	inv := t.Initiator.Invite(agent, role)
	resource := vo.MembershipResource(t.Initiator.VO.Contract.VOName, role)
	writeRaw(w, http.StatusOK, xmldom.String(func(w *xmldom.Writer) { encodeInvitation(w, inv, resource) }))
}

// encodeInvitation writes an invitation, with the membership resource
// to negotiate for unless resource is "":
//
//	<invitation from=… goal=… resource=… role=… vo=…>text</invitation>
//
// goal is left out when empty. /vo/apply replies with one, and
// /vo/mailbox with one for each pending invitation, without resource.
func encodeInvitation(w *xmldom.Writer, inv *core.Invitation, resource string) {
	w.Start("invitation")
	w.Attr("from", inv.From)
	if inv.Goal != "" {
		w.Attr("goal", inv.Goal)
	}
	if resource != "" {
		w.Attr("resource", resource)
	}
	w.Attr("role", inv.Role)
	w.Attr("vo", inv.VO)
	w.Text(inv.Text)
	w.End()
}

// decodeInvitation reads the <invitation> whose start tag r has just
// read, and its resource ("" when absent).
func decodeInvitation(r *xmldom.Reader) (inv *core.Invitation, resource string) {
	inv = &core.Invitation{
		VO:   r.AttrOr("vo", ""),
		Role: r.AttrOr("role", ""),
		From: r.AttrOr("from", ""),
		Goal: r.AttrOr("goal", ""),
	}
	resource = r.AttrOr("resource", "")
	inv.Text = r.Text()
	return inv, resource
}

func (t *ToolkitService) handleMailbox(w http.ResponseWriter, r *http.Request) {
	provider := r.URL.Query().Get("provider")
	agent, err := t.agentFor(provider)
	if err != nil {
		writeFault(w, http.StatusNotFound, "registry", err.Error())
		return
	}
	writeRaw(w, http.StatusOK, xmldom.String(func(w *xmldom.Writer) {
		w.Start("mailbox")
		w.Attr("provider", provider)
		for _, inv := range agent.Mailbox() {
			encodeInvitation(w, inv, "")
		}
		w.End()
	}))
}

// handleJoinDirect is the pre-integration baseline join (no TN): the
// Fig. 9 "Join" bar.
func (t *ToolkitService) handleJoinDirect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeFault(w, http.StatusMethodNotAllowed, "method", "POST required")
		return
	}
	q := r.URL.Query()
	provider, role := q.Get("provider"), q.Get("role")
	if t.Initiator.Registry.Lookup(provider) == nil {
		writeFault(w, http.StatusNotFound, "registry", "provider not published")
		return
	}
	m, err := t.Initiator.VO.Admit(provider, role)
	if err != nil {
		writeFault(w, http.StatusConflict, "admit", err.Error())
		return
	}
	writeRaw(w, http.StatusOK, xmldom.String(func(w *xmldom.Writer) { encodeJoined(w, m) }))
}

// encodeJoined writes the baseline join's reply, the admitted member
// with its membership token's DER:
//
//	<joined member=… role=…><token>base64</token></joined>
func encodeJoined(w *xmldom.Writer, m *vo.Member) {
	w.Start("joined")
	w.Attr("member", m.Name)
	w.Attr("role", m.Role)
	w.Start("token")
	w.TextBase64(m.Token.DER)
	w.End()
	w.End()
}

// decodeJoined reads the token DER of the <joined> whose start tag r has
// just read: its first <token> child, base64 with space around it
// allowed.
func decodeJoined(r *xmldom.Reader) ([]byte, error) {
	for d := r.Depth(); r.Child(d); {
		if r.Name() != "token" {
			continue
		}
		der, err := base64.StdEncoding.DecodeString(strings.TrimSpace(r.Text()))
		if err != nil {
			return nil, fmt.Errorf("wsrpc: bad token encoding: %w", err)
		}
		return der, nil
	}
	return nil, errors.New("wsrpc: join response without token")
}

func (t *ToolkitService) handleMembers(w http.ResponseWriter, r *http.Request) {
	members := t.Initiator.VO.Members()
	writeRaw(w, http.StatusOK, xmldom.String(func(w *xmldom.Writer) { encodeMembers(w, members) }))
}

// encodeMembers writes the reply of /vo/members:
//
//	<members><member name=… role=…/>…</members>
func encodeMembers(w *xmldom.Writer, members []*vo.Member) {
	w.Start("members")
	for _, m := range members {
		w.Start("member")
		w.Attr("name", m.Name)
		w.Attr("role", m.Role)
		w.End()
	}
	w.End()
}

// decodeMembers reads the <members> reply whose root start tag r has
// just read: each <member> child's role by its name.
func decodeMembers(r *xmldom.Reader) (map[string]string, error) {
	if err := expectRoot(r, "members"); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for d := r.Depth(); r.Child(d); {
		if r.Name() == "member" {
			out[r.AttrOr("name", "")] = r.AttrOr("role", "")
		}
	}
	return out, nil
}

func (t *ToolkitService) handleStatus(w http.ResponseWriter, r *http.Request) {
	v := t.Initiator.VO
	name, phase, members, violations := v.Contract.VOName, v.Phase().String(), len(v.Members()), len(v.Violations())
	writeRaw(w, http.StatusOK, xmldom.String(func(w *xmldom.Writer) { encodeVOStatus(w, name, phase, members, violations) }))
}

// encodeVOStatus writes the reply of /vo/status:
//
//	<voStatus members=… name=… phase=… violations=…/>
func encodeVOStatus(w *xmldom.Writer, name, phase string, members, violations int) {
	w.Start("voStatus")
	w.Attr("name", name)
	w.Attr("phase", phase)
	w.AttrInt("members", int64(members))
	w.AttrInt("violations", int64(violations))
	w.End()
}

// decodeVOStatus reads the <voStatus> reply whose root start tag r has
// just read: its phase and member count, which must be a decimal count.
func decodeVOStatus(r *xmldom.Reader) (phase string, members int, err error) {
	if err := expectRoot(r, "voStatus"); err != nil {
		return "", 0, err
	}
	count := r.AttrOr("members", "")
	members, err = strconv.Atoi(count)
	if err != nil || members < 0 {
		return "", 0, fmt.Errorf("wsrpc: <voStatus> members %q is not a count", count)
	}
	return r.AttrOr("phase", ""), members, nil
}

func (t *ToolkitService) lifecycleHandler(fn func() error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeFault(w, http.StatusMethodNotAllowed, "method", "POST required")
			return
		}
		if err := fn(); err != nil {
			writeFault(w, http.StatusConflict, "phase", err.Error())
			return
		}
		phase := t.Initiator.VO.Phase().String()
		writeRaw(w, http.StatusOK, xmldom.String(func(w *xmldom.Writer) {
			w.Start("ok")
			w.Attr("phase", phase)
			w.End()
		}))
	}
}

func (t *ToolkitService) handleOperate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeFault(w, http.StatusMethodNotAllowed, "method", "POST required")
		return
	}
	member := r.URL.Query().Get("member")
	op := r.URL.Query().Get("operation")
	if err := t.Initiator.VO.Authorize(member, op); err != nil {
		writeFault(w, http.StatusForbidden, "authorize", err.Error())
		return
	}
	writeRaw(w, http.StatusOK, xmldom.String(func(w *xmldom.Writer) {
		w.Start("authorized")
		w.Attr("member", member)
		w.Attr("operation", op)
		w.End()
	}))
}

func (t *ToolkitService) handleViolation(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeFault(w, http.StatusMethodNotAllowed, "method", "POST required")
		return
	}
	q := r.URL.Query()
	weight := 1.0
	if ws := q.Get("weight"); ws != "" {
		f, err := strconv.ParseFloat(ws, 64)
		if err != nil {
			writeFault(w, http.StatusBadRequest, "params", "bad weight")
			return
		}
		weight = f
	}
	if err := t.Initiator.VO.ReportViolation(q.Get("member"), q.Get("operation"), q.Get("detail"), weight); err != nil {
		writeFault(w, http.StatusNotFound, "member", err.Error())
		return
	}
	writeRaw(w, http.StatusOK, "<recorded/>")
}

// handleAudit exposes the monitoring log of §2 (VO monitoring is a Host-
// edition feature).
func (t *ToolkitService) handleAudit(w http.ResponseWriter, r *http.Request) {
	entries := t.Initiator.VO.Audit()
	writeRaw(w, http.StatusOK, xmldom.String(func(w *xmldom.Writer) { encodeAudit(w, entries) }))
}

// encodeAudit writes the reply of /vo/audit, each entry's time in RFC
// 3339, UTC, to the second, and its detail left out when empty:
//
//	<audit><entry allowed=… at=… detail=… member=… operation=…/>…</audit>
func encodeAudit(w *xmldom.Writer, entries []vo.AuditEntry) {
	w.Start("audit")
	for _, e := range entries {
		w.Start("entry")
		w.Attr("member", e.Member)
		w.Attr("operation", e.Operation)
		w.Attr("allowed", boolStr(e.Allowed))
		w.AttrTime("at", e.At.UTC(), time.RFC3339)
		if e.Detail != "" {
			w.Attr("detail", e.Detail)
		}
		w.End()
	}
	w.End()
}

// decodeAudit reads the <audit> reply whose root start tag r has just
// read: its <entry> children, in order. An entry whose time is missing
// or not RFC 3339 fails the decode.
func decodeAudit(r *xmldom.Reader) ([]AuditEntry, error) {
	if err := expectRoot(r, "audit"); err != nil {
		return nil, err
	}
	var out []AuditEntry
	for d := r.Depth(); r.Child(d); {
		if r.Name() != "entry" {
			continue
		}
		raw := r.AttrOr("at", "")
		at, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			return nil, fmt.Errorf("wsrpc: <audit> entry at %q is not an RFC 3339 time", raw)
		}
		out = append(out, AuditEntry{
			Member:    r.AttrOr("member", ""),
			Operation: r.AttrOr("operation", ""),
			Allowed:   r.AttrOr("allowed", "") == "true",
			Detail:    r.AttrOr("detail", ""),
			At:        at,
		})
	}
	return out, nil
}

func (t *ToolkitService) handleReputation(w http.ResponseWriter, r *http.Request) {
	member := r.URL.Query().Get("member")
	score := t.Initiator.VO.Reputation.Score(member, timeNow())
	writeRaw(w, http.StatusOK, xmldom.String(func(w *xmldom.Writer) { encodeReputation(w, member, score) }))
}

// encodeReputation writes the reply of /vo/reputation, the score to four
// decimals:
//
//	<reputation member=… score=…/>
func encodeReputation(w *xmldom.Writer, member string, score float64) {
	w.Start("reputation")
	w.Attr("member", member)
	w.Attr("score", strconv.FormatFloat(score, 'f', 4, 64))
	w.End()
}

// decodeReputation reads the score of the <reputation> reply whose root
// start tag r has just read, which must be a number.
func decodeReputation(r *xmldom.Reader) (float64, error) {
	if err := expectRoot(r, "reputation"); err != nil {
		return 0, err
	}
	score := r.AttrOr("score", "")
	f, err := strconv.ParseFloat(score, 64)
	if err != nil {
		return 0, fmt.Errorf("wsrpc: <reputation> score %q is not a number", score)
	}
	return f, nil
}
