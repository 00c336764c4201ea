package negotiation

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"trustvo/internal/ontology"
	"trustvo/internal/pki"
	"trustvo/internal/telemetry"
	"trustvo/internal/xmldom"
	"trustvo/internal/xpath"
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

	// tree is the endpoint's copy of the negotiation tree. Its nodes
	// also carry what the endpoint chose for the nodes it owns: the
	// credential behind a COMPLY node, the candidate behind each
	// alternative of an EXPANDED one (so the disclosure matches whichever
	// alternative the trust sequence satisfied), and which nodes'
	// credentials have been disclosed.
	tree *Tree

	seq    []SequenceEntry
	seqPos int

	phase         phase
	rounds        int
	peerProof     bool   // peer demands ownership proofs
	lastNonceRecv []byte // peer's latest challenge (sign this); in nonces[0] when it fits
	lastNonceSent []byte // my latest challenge (peer signs this); in nonces[1] when it fits
	nonces        [2][pki.NonceSize]byte

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
	return &Endpoint{party: p, role: Requester, resource: resource}
}

// NewController creates the controlling endpoint; the resource is
// learned from the incoming MsgRequest.
func NewController(p *Party) *Endpoint {
	return &Endpoint{party: p, role: Controller}
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
	m := &Message{
		Type:         MsgRequest,
		From:         e.party.Name,
		Resource:     e.resource,
		Strategy:     e.party.Strategy,
		RequireProof: e.party.Strategy.RequiresOwnershipProof(),
		// Present a cached trust ticket, if any: the controller may
		// grant immediately, skipping both negotiation phases.
		Ticket: e.party.Tickets.GetByResource(e.resource, e.party.now()),
	}
	if err := e.challenge(m); err != nil {
		return nil, err
	}
	e.rounds++
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
		e.lastNonceRecv = append(e.nonces[0][:0], in.Nonce...)
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
	outPols := pols
	if e.party.AbstractLevels > 0 && e.party.Mapper != nil {
		outPols = make([]*xtnl.Policy, len(pols))
		for i, pol := range pols {
			outPols[i] = ontology.Abstract(pol, e.party.Mapper.Ontology, e.party.AbstractLevels)
		}
	}
	var buf [4][]xtnl.Term
	alts := buf[:0]
	for _, pol := range outPols {
		alts = append(alts, pol.Terms)
	}
	if _, err := e.tree.Expand(RootID, alts, e.peer); err != nil {
		return e.fail("internal: " + err.Error()), nil
	}
	return e.evalReply(&Answer{NodeID: RootID, Kind: AnswerPolicies, Policies: outPols})
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
			n.disclosed = true
		}
	case AnswerPolicies:
		var buf [4][]xtnl.Term
		alts := buf[:0]
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
// (after pre, an answer the caller already produced, when not nil), or —
// when the tree is complete — the trust-sequence proposal / failure.
func (e *Endpoint) evalReply(pre *Answer) (*Message, error) {
	var buf [8]*Node
	open := e.tree.appendOpen(buf[:0], e.party.Name)
	var answers []Answer
	if pre != nil {
		answers = append(make([]Answer, 0, 1+len(open)), *pre)
	} else if len(open) > 0 {
		answers = make([]Answer, 0, len(open))
	}
	for _, n := range open {
		if e.party.Strategy.OneAnswerPerMessage() && len(answers) >= 1 {
			break // strong-suspicious: one answer per message
		}
		a, err := e.answerNode(n)
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
func (e *Endpoint) answerNode(n *Node) (Answer, error) {
	id := n.ID
	var buf [4]candidate
	cands, err := e.party.resolveTerm(buf[:0], n.Term)
	if err != nil {
		n.State = StateDenied
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
		return e.comply(n, cands[0])
	}
	// Prefer a freely disclosable candidate (least sensitive first).
	for _, c := range cands {
		if _, free := e.party.protectingPolicies(c.cred.Type); free {
			return e.comply(n, c)
		}
	}
	// Every candidate is protected: expose the protecting policies of
	// every distinct candidate type as alternatives, remembering which
	// candidate backs each alternative so the later disclosure matches
	// whichever branch the trust sequence satisfies.
	var pickPols []*xtnl.Policy
	var altCands []candidate
	for i, c := range cands {
		if slices.ContainsFunc(cands[:i], func(o candidate) bool { return o.cred.Type == c.cred.Type }) {
			continue // same-type candidates share policies
		}
		pols, _ := e.party.protectingPolicies(c.cred.Type)
		for _, p := range pols {
			pickPols = append(pickPols, p)
			altCands = append(altCands, c)
		}
	}
	n.altPicks = altCands
	var altBuf [4][]xtnl.Term
	alts := altBuf[:0]
	for _, p := range pickPols {
		alts = append(alts, p.Terms)
	}
	if _, err := e.tree.Expand(id, alts, e.peer); err != nil {
		return Answer{}, err
	}
	return Answer{NodeID: id, Kind: AnswerPolicies, Policies: pickPols}, nil
}

// comply answers my node n COMPLY with candidate c, attaching the
// disclosure at once under an eager strategy.
func (e *Endpoint) comply(n *Node, c candidate) (Answer, error) {
	n.pick = c
	n.State = StateComply
	a := Answer{NodeID: n.ID, Kind: AnswerComply}
	if e.party.Strategy.EagerDisclosure() {
		a.Disclosure = new(CredentialDisclosure)
		if err := e.buildDisclosure(a.Disclosure, n, c); err != nil {
			return Answer{}, err
		}
		n.disclosed = true
		e.recordSent(n.ID, c)
	}
	return a, nil
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
	if len(ds) > 0 {
		out := e.ensureOutcome()
		out.Received = slices.Grow(out.Received, len(ds))
	}
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
		entry.node.disclosed = true
		e.seqPos++
	}
	return nil
}

// skipDisclosed advances seqPos past entries already handled (eager
// trusting disclosures).
func (e *Endpoint) skipDisclosed() {
	for e.seqPos < len(e.seq) && e.seq[e.seqPos].node.disclosed {
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
	e.skipDisclosed()
	run := 0
	for _, s := range e.seq[e.seqPos:] {
		if s.node.disclosed {
			continue
		}
		if s.Owner != e.party.Name {
			break
		}
		run++
	}
	if run == 0 {
		return nil, nil
	}
	ds := make([]CredentialDisclosure, 0, run)
	out := e.ensureOutcome()
	out.Sent = slices.Grow(out.Sent, run)
	for len(ds) < run {
		e.skipDisclosed()
		n := e.seq[e.seqPos].node
		pick, ok := n.chosen()
		if !ok {
			return nil, e.fail("internal: no chosen credential for node " + n.ID)
		}
		ds = ds[:len(ds)+1]
		if err := e.buildDisclosure(&ds[len(ds)-1], n, pick); err != nil {
			return nil, e.fail(err.Error())
		}
		n.disclosed = true
		e.recordSent(n.ID, pick)
		e.seqPos++
	}
	e.skipDisclosed()
	return ds, nil
}

// chosen returns the credential to disclose for my node n: a COMPLY
// node's pick, or for an expanded node the candidate backing the
// alternative the trust sequence actually satisfied.
func (n *Node) chosen() (candidate, bool) {
	if n.pick.cred != nil {
		return n.pick, true
	}
	if n.State == StateExpanded {
		if ai := n.chosenAlt(); ai >= 0 && ai < len(n.altPicks) {
			return n.altPicks[ai], true
		}
	}
	return candidate{}, false
}

// ErrSelectiveRequired reports the §6.3 restriction: a suspicious-family
// strategy must partially hide credential content, which the selected
// credential format cannot do.
var ErrSelectiveRequired = errors.New(
	"negotiation: strategy requires selective disclosure but credential format cannot partially hide content (§6.3)")

// buildDisclosure fills d, the wire disclosure of my node n, for its
// chosen candidate.
func (e *Endpoint) buildDisclosure(d *CredentialDisclosure, n *Node, pick candidate) error {
	d.NodeID = n.ID
	if e.party.Strategy.RequiresSelectiveDisclosure() {
		if pick.selective == nil {
			return ErrSelectiveRequired
		}
		// A concept term opens what its conditions read once mapped onto
		// the credential, as the verifier maps them (termSatisfied).
		conds := n.Term.Conditions
		if concept, ok := ontology.AsConceptRef(n.Term.CredType); ok {
			if c, ok := e.party.conceptConditions(concept, pick.cred.Type, conds); ok {
				conds = c
			}
		}
		names := conditionAttributes(conds, pick.cred)
		disc, err := pick.selective.Disclose(names...)
		if err != nil {
			return err
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
				return err
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
			return errors.New("negotiation: counterpart demands ownership proofs but party has no keys")
		}
		if len(e.lastNonceRecv) == 0 {
			return errors.New("negotiation: no challenge nonce to prove ownership against")
		}
		d.OwnershipProof = pki.ProveOwnership(e.party.Keys, e.lastNonceRecv)
	}
	d.Chain = e.party.Chains
	return nil
}

// verifyDisclosure checks one received disclosure against the expected
// term: issuer trust (with chains), validity, revocation, ownership
// proof when demanded, and term satisfaction. It returns the clear view
// on success or a MsgFail to emit on failure.
func (e *Endpoint) verifyDisclosure(d *CredentialDisclosure, term xtnl.Term) (*xtnl.Credential, *Message) {
	now := e.party.now()
	var view *xtnl.Credential
	var committed *xtnl.Credential
	var dom *xmldom.Node // view's document tree, when the trust store keeps one
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
		var err error
		if e.needsDOM(term) {
			_, dom, err = e.party.Trust.VerifyChainDOM(d.Credential, d.Chain, now)
		} else {
			_, err = e.party.Trust.VerifyChain(d.Credential, d.Chain, now)
		}
		if err != nil {
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
	if !e.termSatisfied(term, view, dom) {
		return nil, e.failVerify(fmt.Sprintf("disclosed credential %s does not satisfy term %s", view.ID, term))
	}
	e.countDisclosureReceived()
	e.ensureOutcome().Received = append(e.outcome.Received, Disclosed{
		By: e.peer, NodeID: d.NodeID, Credential: view,
	})
	return view, nil
}

// needsDOM reports whether checking term may evaluate conditions over a
// credential's document tree.
func (e *Endpoint) needsDOM(term xtnl.Term) bool {
	_, isConcept := ontology.AsConceptRef(term.CredType)
	return len(term.Conditions) > 0 || isConcept
}

// termSatisfied checks a credential against a term, resolving concept
// references through the receiver's ontology. dom is cred's document
// tree when the caller holds one, else nil.
func (e *Endpoint) termSatisfied(term xtnl.Term, cred *xtnl.Credential, dom *xmldom.Node) bool {
	concept, isConcept := ontology.AsConceptRef(term.CredType)
	if !isConcept {
		return term.SatisfiedByDOM(cred, dom)
	}
	if e.party.Mapper == nil {
		return false
	}
	conds, ok := implConditions(e.party.Mapper, concept, cred.Type, term.Conditions)
	return ok && xtnl.Term{Conditions: conds}.SatisfiedByDOM(cred, dom)
}

// conditionAttributes returns the attributes of cred that the term's
// conditions read, the children of /credential/content that their
// location paths name, so that a suspicious discloser opens only those.
// A condition that does not compile, or may read other children, opens
// every attribute, keeping verification possible.
func conditionAttributes(conds []string, cred *xtnl.Credential) []string {
	read := make(map[string]bool)
	for _, c := range conds {
		if e, err := xpath.Compile(c); err == nil {
			if names, all := e.ChildNames("credential", "content"); !all {
				for _, n := range names {
					read[n] = true
				}
				continue
			}
		}
		read = nil // every attribute
		break
	}
	var out []string
	for _, a := range cred.Attributes {
		if read == nil || read[a.Name] {
			out = append(out, a.Name)
		}
	}
	return out
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
	if err := e.challenge(m); err != nil {
		return nil, err
	}
	e.rounds++
	if e.party.Trace != nil {
		e.party.Trace("send", m)
	}
	return m, nil
}

// challenge draws a fresh nonce into m and remembers it as the
// challenge the peer's next proofs must sign.
func (e *Endpoint) challenge(m *Message) error {
	if err := pki.ReadNonce(&m.nonce); err != nil {
		return err
	}
	m.Nonce = m.nonce[:]
	e.lastNonceSent = append(e.nonces[1][:0], m.Nonce...)
	return nil
}
