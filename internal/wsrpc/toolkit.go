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
	body, err := readBodyDOM(r)
	if err != nil {
		writeFault(w, http.StatusBadRequest, "parse", err.Error())
		return
	}
	desc, err := registry.FromDOM(body)
	if err != nil {
		writeFault(w, http.StatusBadRequest, "schema", err.Error())
		return
	}
	if err := t.Initiator.Registry.Publish(desc); err != nil {
		writeFault(w, http.StatusBadRequest, "registry", err.Error())
		return
	}
	writeDOM(w, xmldom.NewElement("published").SetAttr("provider", desc.Provider))
}

func (t *ToolkitService) handleList(w http.ResponseWriter, r *http.Request) {
	out := xmldom.NewElement("descriptions")
	for _, d := range t.Initiator.Registry.All() {
		out.AppendChild(d.DOM())
	}
	writeDOM(w, out)
}

func (t *ToolkitService) handleFind(w http.ResponseWriter, r *http.Request) {
	caps := r.URL.Query()["capability"]
	out := xmldom.NewElement("descriptions")
	for _, d := range t.Initiator.Registry.FindByCapabilities(caps) {
		out.AppendChild(d.DOM())
	}
	writeDOM(w, out)
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
	out := xmldom.NewElement("members")
	for _, m := range t.Initiator.VO.Members() {
		out.AppendChild(xmldom.NewElement("member").
			SetAttr("name", m.Name).
			SetAttr("role", m.Role))
	}
	writeDOM(w, out)
}

func (t *ToolkitService) handleStatus(w http.ResponseWriter, r *http.Request) {
	v := t.Initiator.VO
	writeDOM(w, xmldom.NewElement("voStatus").
		SetAttr("name", v.Contract.VOName).
		SetAttr("phase", v.Phase().String()).
		SetAttr("members", strconv.Itoa(len(v.Members()))).
		SetAttr("violations", strconv.Itoa(len(v.Violations()))))
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
		writeDOM(w, xmldom.NewElement("ok").SetAttr("phase", t.Initiator.VO.Phase().String()))
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
	writeDOM(w, xmldom.NewElement("authorized").
		SetAttr("member", member).SetAttr("operation", op))
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
	writeDOM(w, xmldom.NewElement("recorded"))
}

// handleAudit exposes the monitoring log of §2 (VO monitoring is a Host-
// edition feature).
func (t *ToolkitService) handleAudit(w http.ResponseWriter, r *http.Request) {
	out := xmldom.NewElement("audit")
	for _, e := range t.Initiator.VO.Audit() {
		el := xmldom.NewElement("entry").
			SetAttr("member", e.Member).
			SetAttr("operation", e.Operation).
			SetAttr("allowed", boolStr(e.Allowed)).
			SetAttr("at", e.At.UTC().Format(time.RFC3339))
		if e.Detail != "" {
			el.SetAttr("detail", e.Detail)
		}
		out.AppendChild(el)
	}
	writeDOM(w, out)
}

func (t *ToolkitService) handleReputation(w http.ResponseWriter, r *http.Request) {
	member := r.URL.Query().Get("member")
	score := t.Initiator.VO.Reputation.Score(member, timeNow())
	writeDOM(w, xmldom.NewElement("reputation").
		SetAttr("member", member).
		SetAttr("score", strconv.FormatFloat(score, 'f', 4, 64)))
}
