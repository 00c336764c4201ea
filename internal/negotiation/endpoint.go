package negotiation

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"trustvo/internal/ontology"
	"trustvo/internal/pki"
	"trustvo/internal/telemetry"
	"trustvo/internal/xtnl"
)

// Role distinguishes the two sides of a negotiation.
type Role int

const (
	// Requester wants the resource.
	Requester Role = iota
	// Controller owns the resource.
	Controller
)

func (r Role) String() string {
	if r == Controller {
		return "controller"
	}
	return "requester"
}

type phase int

const (
	phaseEval phase = iota
	phaseExchange
	phaseDone
)

// Disclosed records one verified credential disclosure.
type Disclosed struct {
	By         string
	NodeID     string
	Credential *xtnl.Credential // clear view (selective disclosures show opened attrs only)
}

// Outcome is the result of a finished negotiation, available from
// Endpoint.Outcome once Done reports true.
type Outcome struct {
	Succeeded bool
	Resource  string
	Reason    string // failure cause ("" on success)
	Grant     []byte // MsgSuccess payload (requester side)
	// Received lists the counterpart credentials this endpoint verified.
	Received []Disclosed
	// Sent lists the credentials this endpoint disclosed.
	Sent []Disclosed
	// Rounds counts protocol messages processed (sent + received).
	Rounds int
}

// Endpoint is one party's state machine for a single negotiation.
// It is not safe for concurrent use; drive it from one goroutine.
type Endpoint struct {
	party    *Party
	role     Role
	peer     string
	resource string

	tree   *Tree
	chosen map[string]candidate // my COMPLY nodes -> credential to disclose
	// chosenAlts maps my EXPANDED nodes to the candidate backing each
	// policy alternative, so the disclosure matches whichever
	// alternative the trust sequence satisfied.
	chosenAlts map[string][]candidate

	seq    []SequenceEntry
	seqPos int

	phase         phase
	rounds        int
	peerProof     bool   // peer demands ownership proofs
	lastNonceRecv []byte // peer's latest challenge (sign this)
	lastNonceSent []byte // my latest challenge (peer signs this)
	disclosed     map[string]bool

	// telemetry state (see instrument.go); zero-valued when the party
	// carries neither a Metrics registry nor a Recorder.
	startedAt time.Time
	phaseAt   time.Time
	trace     *telemetry.Trace
	rootSpan  *telemetry.Span
	phaseSpan *telemetry.Span

	outcome *Outcome
}

// NewRequester creates the requesting endpoint for resource.
func NewRequester(p *Party, resource string) *Endpoint {
	return &Endpoint{
		party:      p,
		role:       Requester,
		resource:   resource,
		chosen:     make(map[string]candidate),
		chosenAlts: make(map[string][]candidate),
		disclosed:  make(map[string]bool),
	}
}

// NewController creates the controlling endpoint; the resource is
// learned from the incoming MsgRequest.
func NewController(p *Party) *Endpoint {
	return &Endpoint{
		party:      p,
		role:       Controller,
		chosen:     make(map[string]candidate),
		chosenAlts: make(map[string][]candidate),
		disclosed:  make(map[string]bool),
	}
}

// Done reports whether the negotiation has finished on this endpoint.
func (e *Endpoint) Done() bool { return e.phase == phaseDone }

// Outcome returns the result; nil until Done.
func (e *Endpoint) Outcome() *Outcome { return e.outcome }

// Party returns the endpoint's party.
func (e *Endpoint) Party() *Party { return e.party }

// Tree exposes the endpoint's copy of the negotiation tree (nil before
// the first message). Read-only.
func (e *Endpoint) Tree() *Tree { return e.tree }

// Start emits the opening MsgRequest. Requester endpoints only.
func (e *Endpoint) Start() (*Message, error) {
	if e.role != Requester {
		return nil, errors.New("negotiation: only requesters start")
	}
	if e.tree != nil {
		return nil, errors.New("negotiation: already started")
	}
	e.begin()
	e.tree = NewTree(e.resource, "") // controller name learned from reply
	nonce, err := pki.NewNonce()
	if err != nil {
		return nil, err
	}
	e.lastNonceSent = nonce
	e.rounds++
	m := &Message{
		Type:         MsgRequest,
		From:         e.party.Name,
		Resource:     e.resource,
		Strategy:     e.party.Strategy,
		RequireProof: e.party.Strategy.RequiresOwnershipProof(),
		Nonce:        nonce,
		// Present a cached trust ticket, if any: the controller may
		// grant immediately, skipping both negotiation phases.
		Ticket: e.party.Tickets.GetByResource(e.resource, e.party.now()),
	}
	if e.party.Trace != nil {
		e.party.Trace("send", m)
	}
	return m, nil
}

// Handle processes an incoming message and returns the reply, or nil
// when the message was terminal. Protocol violations and verification
// failures produce a MsgFail reply (and mark the endpoint done), not an
// error; errors are reserved for local faults (e.g. nonce generation).
func (e *Endpoint) Handle(in *Message) (*Message, error) {
	if e.phase == phaseDone {
		return nil, errors.New("negotiation: endpoint already done")
	}
	e.begin()
	sp := e.phaseSpan.StartChild(recvSpanName(in.Type))
	defer sp.End()
	if e.party.Trace != nil {
		e.party.Trace("recv", in)
	}
	e.rounds++
	if e.rounds > e.party.maxRounds() {
		return e.fail("round limit exceeded"), nil
	}
	if len(in.Nonce) > 0 {
		e.lastNonceRecv = in.Nonce
	}
	if in.RequireProof {
		e.peerProof = true
	}
	if e.peer == "" {
		e.peer = in.From
	}

	switch in.Type {
	case MsgRequest:
		return e.handleRequest(in)
	case MsgPolicy, MsgContinue:
		return e.handlePolicy(in)
	case MsgSequence:
		return e.handleSequence(in)
	case MsgCredential:
		return e.handleCredential(in)
	case MsgAck:
		if e.phase != phaseExchange {
			return e.fail("unexpected ack during policy evaluation"), nil
		}
		return e.exchangeTurn()
	case MsgSuccess:
		if in.Ticket != nil {
			e.party.Tickets.Put(in.Ticket)
		}
		e.finish(&Outcome{Succeeded: true, Resource: e.resource, Grant: in.Grant})
		return nil, nil
	case MsgFail:
		e.finish(&Outcome{Succeeded: false, Resource: e.resource, Reason: in.Reason})
		return nil, nil
	default:
		return e.fail(fmt.Sprintf("unknown message type %v", in.Type)), nil
	}
}

// ---- phase 1: policy evaluation ----

func (e *Endpoint) handleRequest(in *Message) (*Message, error) {
	if e.role != Controller || e.tree != nil {
		return e.fail("unexpected request"), nil
	}
	e.resource = in.Resource
	e.tree = NewTree(in.Resource, e.party.Name)

	// Trust-ticket fast path: a valid ticket this controller issued for
	// this peer and resource skips the negotiation. An invalid ticket is
	// ignored (the negotiation proceeds normally), not an error.
	if in.Ticket != nil && in.Ticket.Verify(e.party.Keys, in.From, in.Resource, e.party.now()) == nil {
		return e.grant()
	}

	// The root is answered from policy alone: a controller only releases
	// resources it holds an explicit rule for.
	pols := e.party.Policies.For(e.resource)
	if len(pols) == 0 {
		return e.fail(fmt.Sprintf("resource %q not offered", e.resource)), nil
	}
	for _, pol := range pols {
		if pol.Deliver {
			// Freely deliverable resource: grant immediately.
			return e.grant()
		}
	}
	var alts [][]xtnl.Term
	outPols := pols
	if e.party.AbstractLevels > 0 && e.party.Mapper != nil {
		outPols = make([]*xtnl.Policy, len(pols))
		for i, pol := range pols {
			outPols[i] = ontology.Abstract(pol, e.party.Mapper.Ontology, e.party.AbstractLevels)
		}
	}
	for _, pol := range outPols {
		alts = append(alts, pol.Terms)
	}
	if _, err := e.tree.Expand(RootID, alts, e.peer); err != nil {
		return e.fail("internal: " + err.Error()), nil
	}
	reply, err := e.evalReply([]Answer{{NodeID: RootID, Kind: AnswerPolicies, Policies: outPols}})
	return reply, err
}

func (e *Endpoint) handlePolicy(in *Message) (*Message, error) {
	if e.phase != phaseEval {
		return e.fail("unexpected policy message during credential exchange"), nil
	}
	if e.tree == nil {
		return e.fail("policy message before request"), nil
	}
	// Apply the peer's answers to the mirror tree.
	for i := range in.Answers {
		if failMsg := e.applyAnswer(&in.Answers[i]); failMsg != nil {
			return failMsg, nil
		}
		if e.tree.Len() > e.party.maxTreeNodes() {
			return e.fail(fmt.Sprintf("negotiation tree exceeds %d nodes", e.party.maxTreeNodes())), nil
		}
	}
	if e.tree.Dead(RootID) {
		return e.fail("no satisfiable view: all alternatives failed"), nil
	}
	return e.evalReply(nil)
}

// applyAnswer integrates one peer answer; it returns a MsgFail on
// protocol violations, nil otherwise.
func (e *Endpoint) applyAnswer(a *Answer) *Message {
	n := e.tree.Node(a.NodeID)
	if n == nil {
		return e.fail(fmt.Sprintf("answer for unknown node %s", a.NodeID))
	}
	if n.State != StateOpen {
		return e.fail(fmt.Sprintf("answer for already-answered node %s", a.NodeID))
	}
	if n.Owner != e.peer && !(a.NodeID == RootID && n.Owner == "") {
		return e.fail(fmt.Sprintf("peer answered node %s it does not own", a.NodeID))
	}
	if a.NodeID == RootID && n.Owner == "" {
		n.Owner = e.peer // requester learns the controller's name
	}
	switch a.Kind {
	case AnswerDeny:
		e.tree.Deny(a.NodeID)
	case AnswerComply:
		e.tree.Comply(a.NodeID)
		if a.Disclosure != nil {
			// Eager (trusting) disclosure piggybacked on the answer.
			if _, failMsg := e.verifyDisclosure(a.Disclosure, n.Term); failMsg != nil {
				return failMsg
			}
			e.disclosed[a.NodeID] = true
		}
	case AnswerPolicies:
		var alts [][]xtnl.Term
		for _, p := range a.Policies {
			if p.Deliver || len(p.Terms) == 0 {
				return e.fail(fmt.Sprintf("invalid protecting policy for node %s", a.NodeID))
			}
			alts = append(alts, p.Terms)
		}
		if len(alts) == 0 {
			return e.fail(fmt.Sprintf("policies answer without policies for node %s", a.NodeID))
		}
		if _, err := e.tree.Expand(a.NodeID, alts, e.party.Name); err != nil {
			return e.fail("protocol: " + err.Error())
		}
	}
	return nil
}

// evalReply computes the next phase-1 message: answers to my open nodes
// (prepended by preAnswers the caller already produced), or — when the
// tree is complete — the trust-sequence proposal / failure.
func (e *Endpoint) evalReply(preAnswers []Answer) (*Message, error) {
	answers := preAnswers
	open := e.tree.OpenNodes(e.party.Name)
	for _, id := range open {
		if e.party.Strategy.OneAnswerPerMessage() && len(answers) >= 1 {
			break // strong-suspicious: one answer per message
		}
		a, err := e.answerNode(id)
		if err != nil {
			return e.fail(err.Error()), nil
		}
		answers = append(answers, a)
		if e.tree.Len() > e.party.maxTreeNodes() {
			return e.fail(fmt.Sprintf("negotiation tree exceeds %d nodes", e.party.maxTreeNodes())), nil
		}
	}
	if len(answers) > 0 {
		return e.send(&Message{Type: MsgPolicy, Answers: answers})
	}
	if !e.tree.Complete() {
		// Peer still owes answers (its strong-suspicious pacing).
		return e.send(&Message{Type: MsgContinue})
	}
	if e.tree.Dead(RootID) || !e.tree.Satisfiable(RootID) {
		return e.fail("no satisfiable view"), nil
	}
	// Phase 1 succeeded: propose the trust sequence. If the first due
	// disclosures are ours, piggyback them (the paper's interleaved
	// exchange: an acknowledgment "asks for the subsequent credential…
	// otherwise, a credential belonging to the subsequent set… is sent").
	e.seq = e.tree.Sequence()
	e.enterExchange()
	ids := make([]string, len(e.seq))
	for i, s := range e.seq {
		ids[i] = s.NodeID
	}
	ds, failMsg := e.discloseRun()
	if failMsg != nil {
		return failMsg, nil
	}
	return e.send(&Message{Type: MsgSequence, Sequence: ids, Disclosures: ds})
}

// answerNode evaluates one of my open nodes (Algorithm-1-backed).
func (e *Endpoint) answerNode(id string) (Answer, error) {
	n := e.tree.Node(id)
	cands, err := e.party.resolveTerm(n.Term)
	if err != nil {
		e.tree.Deny(id)
		return Answer{NodeID: id, Kind: AnswerDeny, Reason: "credential not possessed"}, nil
	}
	if e.tree.HasAncestorTerm(id, e.party.Name, n.Term) {
		// Mutual-requirement cycle: this exact requirement already sits
		// higher on the path, so its disclosure is already committed in
		// this view — comply rather than re-expand. This resolves the
		// paper's §5.1 interlock ("Certification ← PrivacyRegulator"
		// answered by "PrivacyRegulator ← PrivacyRegulator"): both
		// parties hold the credential and exchange mutually; the trust
		// sequence dedupes the repeated entry.
		e.chosen[id] = cands[0]
		e.tree.Comply(id)
		a := Answer{NodeID: id, Kind: AnswerComply}
		if e.party.Strategy.EagerDisclosure() {
			d, err := e.buildDisclosure(id, cands[0])
			if err != nil {
				return Answer{}, err
			}
			a.Disclosure = d
			e.disclosed[id] = true
			e.recordSent(id, cands[0])
		}
		return a, nil
	}
	// Prefer a freely disclosable candidate (least sensitive first).
	for _, c := range cands {
		if _, free := e.party.protectingPolicies(c.cred.Type); free {
			e.chosen[id] = c
			e.tree.Comply(id)
			a := Answer{NodeID: id, Kind: AnswerComply}
			if e.party.Strategy.EagerDisclosure() {
				d, err := e.buildDisclosure(id, c)
				if err != nil {
					return Answer{}, err
				}
				a.Disclosure = d
				e.disclosed[id] = true
				e.recordSent(id, c)
			}
			return a, nil
		}
	}
	// Every candidate is protected: expose the protecting policies of
	// every distinct candidate type as alternatives, remembering which
	// candidate backs each alternative so the later disclosure matches
	// whichever branch the trust sequence satisfies.
	var pickPols []*xtnl.Policy
	var altCands []candidate
	seenType := make(map[string]bool)
	for _, c := range cands {
		if seenType[c.cred.Type] {
			continue // same-type candidates share policies
		}
		seenType[c.cred.Type] = true
		pols, _ := e.party.protectingPolicies(c.cred.Type)
		for _, p := range pols {
			pickPols = append(pickPols, p)
			altCands = append(altCands, c)
		}
	}
	e.chosenAlts[id] = altCands
	var alts [][]xtnl.Term
	for _, p := range pickPols {
		alts = append(alts, p.Terms)
	}
	if _, err := e.tree.Expand(id, alts, e.peer); err != nil {
		return Answer{}, err
	}
	return Answer{NodeID: id, Kind: AnswerPolicies, Policies: pickPols}, nil
}

// ---- phase 2: credential exchange ----

func (e *Endpoint) handleSequence(in *Message) (*Message, error) {
	if e.phase != phaseEval {
		return e.fail("unexpected sequence message"), nil
	}
	if !e.tree.Complete() || !e.tree.Satisfiable(RootID) {
		return e.fail("sequence proposed on incomplete tree"), nil
	}
	want := e.tree.Sequence()
	if len(want) != len(in.Sequence) {
		return e.fail("trust sequence mismatch"), nil
	}
	for i, s := range want {
		if s.NodeID != in.Sequence[i] {
			return e.fail("trust sequence mismatch"), nil
		}
	}
	e.seq = want
	e.enterExchange()
	if failMsg := e.processDisclosures(in.Disclosures); failMsg != nil {
		return failMsg, nil
	}
	return e.exchangeTurn()
}

func (e *Endpoint) handleCredential(in *Message) (*Message, error) {
	if e.phase != phaseExchange {
		return e.fail("unexpected credential message"), nil
	}
	if failMsg := e.processDisclosures(in.Disclosures); failMsg != nil {
		return failMsg, nil
	}
	return e.exchangeTurn()
}

// processDisclosures verifies a batch of peer disclosures against the
// trust sequence, advancing the position. It returns a MsgFail on any
// violation.
func (e *Endpoint) processDisclosures(ds []CredentialDisclosure) *Message {
	for i := range ds {
		d := &ds[i]
		e.skipDisclosed()
		if e.seqPos >= len(e.seq) {
			return e.fail("disclosure beyond trust sequence")
		}
		entry := e.seq[e.seqPos]
		if entry.Owner != e.peer {
			return e.fail(fmt.Sprintf("out-of-turn disclosure for node %s", d.NodeID))
		}
		if d.NodeID != entry.NodeID {
			return e.fail(fmt.Sprintf("disclosure for node %s, expected %s", d.NodeID, entry.NodeID))
		}
		if _, failMsg := e.verifyDisclosure(d, entry.Term); failMsg != nil {
			return failMsg
		}
		e.disclosed[entry.NodeID] = true
		e.seqPos++
	}
	return nil
}

// skipDisclosed advances seqPos past entries already handled (eager
// trusting disclosures).
func (e *Endpoint) skipDisclosed() {
	for e.seqPos < len(e.seq) && e.disclosed[e.seq[e.seqPos].NodeID] {
		e.seqPos++
	}
}

// exchangeTurn advances the credential-exchange phase from this
// endpoint's perspective.
func (e *Endpoint) exchangeTurn() (*Message, error) {
	e.skipDisclosed()
	if e.seqPos >= len(e.seq) {
		if e.role == Controller {
			return e.grant()
		}
		// Requester: everything disclosed and verified; ask the
		// controller to release the resource.
		return e.send(&Message{Type: MsgAck})
	}
	entry := e.seq[e.seqPos]
	if entry.Owner != e.party.Name {
		// Peer's turn; acknowledge and wait.
		return e.send(&Message{Type: MsgAck})
	}
	ds, failMsg := e.discloseRun()
	if failMsg != nil {
		return failMsg, nil
	}
	return e.send(&Message{Type: MsgCredential, Disclosures: ds})
}

// discloseRun builds disclosures for the maximal run of consecutive
// sequence entries owned by this endpoint, starting at the current
// position. An empty run is fine (nil, nil).
func (e *Endpoint) discloseRun() ([]CredentialDisclosure, *Message) {
	var ds []CredentialDisclosure
	for e.seqPos < len(e.seq) {
		e.skipDisclosed()
		if e.seqPos >= len(e.seq) || e.seq[e.seqPos].Owner != e.party.Name {
			break
		}
		cur := e.seq[e.seqPos]
		pick, ok := e.chosen[cur.NodeID]
		if !ok {
			// Expanded node: disclose the candidate backing the
			// alternative the trust sequence actually satisfied.
			if ai := e.tree.ChosenAlt(cur.NodeID); ai >= 0 {
				if alts := e.chosenAlts[cur.NodeID]; ai < len(alts) {
					pick, ok = alts[ai], true
				}
			}
		}
		if !ok {
			return nil, e.fail("internal: no chosen credential for node " + cur.NodeID)
		}
		d, err := e.buildDisclosure(cur.NodeID, pick)
		if err != nil {
			return nil, e.fail(err.Error())
		}
		ds = append(ds, *d)
		e.disclosed[cur.NodeID] = true
		e.recordSent(cur.NodeID, pick)
		e.seqPos++
	}
	return ds, nil
}

// ErrSelectiveRequired reports the §6.3 restriction: a suspicious-family
// strategy must partially hide credential content, which the selected
// credential format cannot do.
var ErrSelectiveRequired = errors.New(
	"negotiation: strategy requires selective disclosure but credential format cannot partially hide content (§6.3)")

// buildDisclosure assembles the wire disclosure for a chosen candidate.
func (e *Endpoint) buildDisclosure(nodeID string, pick candidate) (*CredentialDisclosure, error) {
	d := &CredentialDisclosure{NodeID: nodeID}
	term := e.tree.Node(nodeID).Term
	if e.party.Strategy.RequiresSelectiveDisclosure() {
		if pick.selective == nil {
			return nil, ErrSelectiveRequired
		}
		names := conditionAttributes(term.Conditions, pick.cred)
		disc, err := pick.selective.Disclose(names...)
		if err != nil {
			return nil, err
		}
		d.Committed = disc.Committed
		for _, o := range disc.Opened {
			d.Opened = append(d.Opened, OpenedAttr(o))
		}
	} else if der, ok := e.party.X509[pick.cred.ID]; ok &&
		(e.party.PreferX509 || len(pick.cred.Signature) == 0) {
		// §6.3 dual-format support: disclose the X.509 encoding. It is
		// mandatory for credentials that exist only in X.509 form
		// (participation tickets have no XML signature).
		d.X509 = der
	} else {
		d.Credential = pick.cred
		if pick.selective != nil {
			// Non-suspicious strategies may still hold selective
			// credentials; disclose the full committed form plus all
			// openings so the receiver can verify the signature.
			disc, err := pick.selective.Disclose(pick.selective.AttributeNames()...)
			if err != nil {
				return nil, err
			}
			d.Credential = nil
			d.Committed = disc.Committed
			for _, o := range disc.Opened {
				d.Opened = append(d.Opened, OpenedAttr(o))
			}
		}
	}
	if e.peerProof {
		if e.party.Keys == nil {
			return nil, errors.New("negotiation: counterpart demands ownership proofs but party has no keys")
		}
		if len(e.lastNonceRecv) == 0 {
			return nil, errors.New("negotiation: no challenge nonce to prove ownership against")
		}
		d.OwnershipProof = pki.ProveOwnership(e.party.Keys, e.lastNonceRecv)
	}
	d.Chain = e.party.Chains
	return d, nil
}

// verifyDisclosure checks one received disclosure against the expected
// term: issuer trust (with chains), validity, revocation, ownership
// proof when demanded, and term satisfaction. It returns the clear view
// on success or a MsgFail to emit on failure.
func (e *Endpoint) verifyDisclosure(d *CredentialDisclosure, term xtnl.Term) (*xtnl.Credential, *Message) {
	now := e.party.now()
	var view *xtnl.Credential
	var committed *xtnl.Credential
	switch {
	case d.Committed != nil:
		committed = d.Committed
		if _, err := e.party.Trust.VerifyChain(d.Committed, d.Chain, now); err != nil {
			return nil, e.failVerify("credential verification failed: " + err.Error())
		}
		pd := &pki.Disclosure{Committed: d.Committed}
		for _, o := range d.Opened {
			pd.Opened = append(pd.Opened, pki.OpenedAttr(o))
		}
		v, err := pki.VerifyDisclosure(pd)
		if err != nil {
			return nil, e.failVerify("selective disclosure invalid: " + err.Error())
		}
		view = v
	case d.Credential != nil:
		committed = d.Credential
		if _, err := e.party.Trust.VerifyChain(d.Credential, d.Chain, now); err != nil {
			return nil, e.failVerify("credential verification failed: " + err.Error())
		}
		view = d.Credential
	case len(d.X509) > 0:
		v, err := e.party.Trust.VerifyX509Attribute(d.X509, now)
		if err != nil {
			return nil, e.failVerify("x509 credential verification failed: " + err.Error())
		}
		committed = v
		view = v
	default:
		return nil, e.failVerify("empty disclosure")
	}
	if e.party.Strategy.RequiresOwnershipProof() {
		if len(e.lastNonceSent) == 0 {
			return nil, e.failVerify("internal: no challenge nonce issued")
		}
		if err := pki.VerifyOwnership(committed, e.lastNonceSent, d.OwnershipProof); err != nil {
			return nil, e.failVerify("ownership proof failed: " + err.Error())
		}
	}
	if !e.termSatisfied(term, view) {
		return nil, e.failVerify(fmt.Sprintf("disclosed credential %s does not satisfy term %s", view.ID, term))
	}
	e.countDisclosureReceived()
	e.ensureOutcome().Received = append(e.outcome.Received, Disclosed{
		By: e.peer, NodeID: d.NodeID, Credential: view,
	})
	return view, nil
}

// termSatisfied checks a credential against a term, resolving concept
// references through the receiver's ontology.
func (e *Endpoint) termSatisfied(term xtnl.Term, cred *xtnl.Credential) bool {
	concept, isConcept := ontology.AsConceptRef(term.CredType)
	if !isConcept {
		return term.SatisfiedBy(cred)
	}
	if e.party.Mapper == nil {
		return false
	}
	implemented := false
	for _, im := range e.party.Mapper.Ontology.ImplementationsOf(concept) {
		if im.CredType == cred.Type {
			implemented = true
			break
		}
	}
	if !implemented {
		return false
	}
	conds := e.party.Mapper.Ontology.ToImplConditions(concept, cred.Type, term.Conditions)
	return xtnl.Term{Conditions: conds}.SatisfiedBy(cred)
}

// conditionAttributes extracts the content-attribute names referenced by
// the term's XPath conditions, so a suspicious discloser opens only
// those. Conditions that reference no recognizable content attribute
// cause a full opening of the mentioned credential attributes, keeping
// verification possible.
func conditionAttributes(conds []string, cred *xtnl.Credential) []string {
	names := make(map[string]bool)
	analyzed := true
	for _, c := range conds {
		found := false
		for _, marker := range []string{"content/"} {
			idx := 0
			for {
				j := strings.Index(c[idx:], marker)
				if j < 0 {
					break
				}
				start := idx + j + len(marker)
				end := start
				for end < len(c) && (isIdentRune(c[end])) {
					end++
				}
				if end > start {
					names[c[start:end]] = true
					found = true
				}
				idx = end
			}
		}
		if !found {
			analyzed = false
		}
	}
	if !analyzed {
		// Fallback: open everything so the condition can evaluate.
		var all []string
		for _, a := range cred.Attributes {
			all = append(all, a.Name)
		}
		return all
	}
	var out []string
	for _, a := range cred.Attributes {
		if names[a.Name] {
			out = append(out, a.Name)
		}
	}
	return out
}

func isIdentRune(b byte) bool {
	return b == '_' || b == '-' || b == '.' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

// ---- terminal transitions ----

func (e *Endpoint) grant() (*Message, error) {
	var grant []byte
	if e.party.Grant != nil {
		g, err := e.party.Grant(e.resource, e.peer)
		if err != nil {
			return e.fail("grant failed: " + err.Error()), nil
		}
		grant = g
	}
	msg := &Message{Type: MsgSuccess, Grant: grant}
	if e.party.TicketTTL > 0 && e.party.Keys != nil {
		msg.Ticket = IssueTicket(e.party.Keys, e.party.Name, e.peer, e.resource, e.party.TicketTTL)
	}
	out, err := e.send(msg)
	if err != nil {
		return nil, err
	}
	e.finish(&Outcome{Succeeded: true, Resource: e.resource})
	return out, nil
}

// fail emits a MsgFail and finishes the endpoint.
func (e *Endpoint) fail(reason string) *Message {
	msg := &Message{Type: MsgFail, From: e.party.Name, Reason: reason}
	if e.party.Trace != nil {
		e.party.Trace("send", msg)
	}
	e.finish(&Outcome{Succeeded: false, Resource: e.resource, Reason: reason})
	return msg
}

func (e *Endpoint) finish(o *Outcome) {
	prev := e.phase
	base := e.ensureOutcome()
	base.Succeeded = o.Succeeded
	base.Resource = o.Resource
	base.Reason = o.Reason
	base.Grant = o.Grant
	base.Rounds = e.rounds
	e.phase = phaseDone
	e.finishTelemetry(prev, base)
}

func (e *Endpoint) ensureOutcome() *Outcome {
	if e.outcome == nil {
		e.outcome = &Outcome{Resource: e.resource}
	}
	return e.outcome
}

func (e *Endpoint) recordSent(nodeID string, pick candidate) {
	e.countDisclosureSent()
	e.ensureOutcome().Sent = append(e.outcome.Sent, Disclosed{
		By: e.party.Name, NodeID: nodeID, Credential: pick.cred,
	})
}

// send stamps common fields on an outgoing message and counts the round.
func (e *Endpoint) send(m *Message) (*Message, error) {
	m.From = e.party.Name
	m.Resource = e.resource
	if e.party.Strategy.RequiresOwnershipProof() {
		m.RequireProof = true
	}
	nonce, err := pki.NewNonce()
	if err != nil {
		return nil, err
	}
	m.Nonce = nonce
	e.lastNonceSent = nonce
	e.rounds++
	if e.party.Trace != nil {
		e.party.Trace("send", m)
	}
	return m, nil
}

// Dead reports whether the subtree rooted at id can no longer succeed:
// the node is denied, or it is expanded and every alternative contains a
// dead child. Open nodes are not dead (still undetermined).
func (t *Tree) Dead(id string) bool {
	n := t.nodes[id]
	if n == nil {
		return true
	}
	switch n.State {
	case StateDenied:
		return true
	case StateExpanded:
		for ai := range n.Alts {
			altDead := false
			for _, cid := range n.Alts[ai] {
				if t.Dead(cid) {
					altDead = true
					break
				}
			}
			if !altDead {
				return false
			}
		}
		return true
	default:
		return false
	}
}
