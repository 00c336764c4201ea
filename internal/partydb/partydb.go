// Package partydb persists a negotiation party's X-Profile, disclosure
// policies and ontology in the embedded document store (internal/store),
// reproducing the paper's database-backed TN service: "StartNegotiation …
// opens the connection with [the] Oracle database containing the
// disclosure policies and credentials of the invoker" (§6.2), and
// "PolicyExchange checks if the database contains disclosure policies
// protecting the credentials requested".
//
// Documents are stored under three kinds:
//
//	credential/<owner>/<credID>   Fig. 6 credential documents
//	policy/<owner>/<polID>        Fig. 7 policy documents
//	ontology/<owner>              OWL-sketch ontology documents
//
// An owner name may not contain '/', so a key's first '/' ends its
// owner. A save replaces what the store held for the party: the owner's
// records of the saved kind that the party no longer holds are deleted.
//
// The package is durability-agnostic — it writes through whatever
// *store.Store it is given — but the servers (cmd/tnserve, voctl serve)
// open their stores with store.OpenDurable, so every Save here is on
// stable storage once it returns. SaveResumeTicket additionally calls
// Sync itself: a resume ticket is written precisely because the process
// may die next, so it must not wait in an OS cache.
package partydb

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/ontology"
	"trustvo/internal/store"
	"trustvo/internal/xtnl"
)

// Kinds used in the store.
const (
	KindCredential = "credential"
	KindPolicy     = "policy"
	KindOntology   = "ontology"
	// KindResumeTicket holds suspended-negotiation resume tickets
	// (negotiation.ResumeTicket), keyed <owner>/<negID>, so an
	// interrupted party survives a process restart and still resumes.
	KindResumeTicket = "resume"
)

func credKey(owner, id string) string { return owner + "/" + id }

// checkOwner refuses an owner name containing '/': its records would
// read as, and be pruned with, those of the owner its first segment
// names.
func checkOwner(owner string) error {
	if strings.Contains(owner, "/") {
		return fmt.Errorf("partydb: party name %q contains '/'", owner)
	}
	return nil
}

// ownedBy reports whether key names a record of owner: the owner, '/'
// and an ID of at least one byte.
func ownedBy(key, owner string) bool {
	return len(key) > len(owner)+1 && key[len(owner)] == '/' && key[:len(owner)] == owner
}

// prune deletes the owner's records of kind whose keys keep lacks.
func prune(db *store.Store, kind, owner string, keep map[string]bool) error {
	prefix := owner + "/"
	for _, rec := range db.List(kind) {
		if strings.HasPrefix(rec.Key, prefix) && !keep[rec.Key] {
			if err := db.Delete(kind, rec.Key); err != nil && !errors.Is(err, store.ErrNotFound) {
				return err
			}
		}
	}
	return nil
}

// Reader is the read surface the Load functions need. Both *store.Store
// and *cacher.Cache satisfy it, so a TN server can route its hot party
// reloads through the coalescing cache while the write path (and
// LoadResumeTickets, which deletes expired tickets as it reads) keeps
// talking to the store directly. The Load functions decode each record's
// XML straight from its bytes and never assign to a record, which the
// cache's shared records demand.
type Reader interface {
	Get(kind, key string) (*store.Record, error)
	List(kind string) []*store.Record
}

// SaveProfile writes every credential of the profile and deletes the
// owner's stored credentials the profile does not hold.
func SaveProfile(db *store.Store, p *xtnl.Profile) error {
	if err := checkOwner(p.Owner); err != nil {
		return err
	}
	keep := make(map[string]bool, p.Len())
	for _, c := range p.All() {
		if c.ID == "" {
			return fmt.Errorf("partydb: credential of type %q has no ID", c.Type)
		}
		key := credKey(p.Owner, c.ID)
		if err := db.PutXML(KindCredential, key, c.XML()); err != nil {
			return err
		}
		keep[key] = true
	}
	return prune(db, KindCredential, p.Owner, keep)
}

// LoadProfile reads the owner's credentials back into an X-Profile.
func LoadProfile(db Reader, owner string) (*xtnl.Profile, error) {
	if err := checkOwner(owner); err != nil {
		return nil, err
	}
	creds, _, err := loadKind(db, KindCredential, owner, nil, xtnl.ParseCredential)
	if err != nil {
		return nil, err
	}
	return newProfile(owner, creds), nil
}

// SavePolicies writes every policy of the set, assigning sequential IDs
// to policies that lack one, and deletes the owner's stored policies the
// set does not hold.
func SavePolicies(db *store.Store, owner string, ps *xtnl.PolicySet) error {
	if err := checkOwner(owner); err != nil {
		return err
	}
	keep := make(map[string]bool, ps.Len())
	for i, pol := range ps.All() {
		id := pol.ID
		if id == "" {
			id = "pol-" + strconv.Itoa(i)
		}
		key := credKey(owner, id)
		if err := db.Put(KindPolicy, key, pol.DOM()); err != nil {
			return err
		}
		keep[key] = true
	}
	return prune(db, KindPolicy, owner, keep)
}

// LoadPolicies reads the owner's disclosure policies.
func LoadPolicies(db Reader, owner string) (*xtnl.PolicySet, error) {
	if err := checkOwner(owner); err != nil {
		return nil, err
	}
	pols, _, err := loadKind(db, KindPolicy, owner, nil, xtnl.ParsePolicy)
	if err != nil {
		return nil, err
	}
	return newPolicySet(pols)
}

// SaveOntology writes the owner's local ontology.
func SaveOntology(db *store.Store, owner string, o *ontology.Ontology) error {
	if err := checkOwner(owner); err != nil {
		return err
	}
	return db.Put(KindOntology, owner, o.DOM())
}

// LoadOntology reads the owner's local ontology; it returns (nil, nil)
// when none is stored.
func LoadOntology(db Reader, owner string) (*ontology.Ontology, error) {
	if err := checkOwner(owner); err != nil {
		return nil, err
	}
	o, err := loadOntology(db, owner, decoded[*ontology.Ontology]{})
	return o.val, err
}

// SaveParty persists the party's negotiation state (profile, policies
// and — when present — ontology), replacing what the store held for it:
// a party without an ontology deletes the stored one.
func SaveParty(db *store.Store, p *negotiation.Party) error {
	if err := SaveProfile(db, p.Profile); err != nil {
		return err
	}
	if err := SavePolicies(db, p.Name, p.Policies); err != nil {
		return err
	}
	if p.Mapper != nil {
		return SaveOntology(db, p.Name, p.Mapper.Ontology)
	}
	if err := db.Delete(KindOntology, p.Name); err != nil && !errors.Is(err, store.ErrNotFound) {
		return err
	}
	return nil
}

// LoadParty rebuilds a party's negotiation state from the store. Trust
// anchors, keys and hooks are not stored (they come from configuration),
// so the caller passes a template carrying them; the returned party has
// the template's identity fields with the stored profile, policies and
// ontology. It is Reload from no snapshot.
func LoadParty(db Reader, template *negotiation.Party) (*negotiation.Party, error) {
	s, err := Reload(db, template, nil)
	if err != nil {
		return nil, err
	}
	return s.party, nil
}

// Snapshot is a party's negotiation state as decoded from the store at
// one point, with the records it was decoded from. Neither the snapshot
// nor any value it holds is changed once Reload has returned it:
// sessions share its party, and a later Reload shares with it the
// values of the records that have not changed since.
type Snapshot struct {
	party *negotiation.Party
	creds []decoded[*xtnl.Credential]
	pols  []decoded[*xtnl.Policy]
	onto  decoded[*ontology.Ontology] // val nil when none is stored
}

// decoded is one record's value, with the key and XML it was decoded
// from.
type decoded[T any] struct {
	key, xml string
	val      T
}

// Party returns the party the snapshot holds: the template's identity
// fields with the stored profile, policies and ontology. It is shared
// and must not be changed.
func (s *Snapshot) Party() *negotiation.Party { return s.party }

// Reload rebuilds template's party from the store, record by record. It
// reads every party kind as LoadParty does, the credentials first and
// the ontology last, and decodes only the records whose key or XML
// differ from every record prev was decoded from; the others keep
// prev's values. A kind none of whose records changed keeps prev's
// container: its Profile, its PolicySet, or the ontology Mapper when the
// profile is kept too. A nil prev decodes every record.
func Reload(db Reader, template *negotiation.Party, prev *Snapshot) (*Snapshot, error) {
	owner := template.Name
	if err := checkOwner(owner); err != nil {
		return nil, err
	}
	if prev == nil || prev.party.Name != owner {
		prev = &Snapshot{}
	}
	next := &Snapshot{}
	var sameCreds, samePols bool
	var err error
	if next.creds, sameCreds, err = loadKind(db, KindCredential, owner, prev.creds, xtnl.ParseCredential); err != nil {
		return nil, err
	}
	if next.pols, samePols, err = loadKind(db, KindPolicy, owner, prev.pols, xtnl.ParsePolicy); err != nil {
		return nil, err
	}
	if next.onto, err = loadOntology(db, owner, prev.onto); err != nil {
		return nil, err
	}
	p := *template
	if sameCreds && prev.party != nil {
		p.Profile = prev.party.Profile
	} else {
		p.Profile = newProfile(owner, next.creds)
	}
	if samePols && prev.party != nil {
		p.Policies = prev.party.Policies
	} else if p.Policies, err = newPolicySet(next.pols); err != nil {
		return nil, err
	}
	if o := next.onto.val; o != nil {
		if o == prev.onto.val && p.Profile == prev.party.Profile {
			p.Mapper = prev.party.Mapper
		} else {
			p.Mapper = &ontology.Mapper{Ontology: o, Profile: p.Profile}
		}
	}
	next.party = &p
	return next, nil
}

// loadKind lists kind and decodes the owner's records of it in key
// order, taking the value of a record whose key and XML equal those of
// an entry of prev from that entry. same reports that every entry came
// from prev and that none of prev's is gone.
func loadKind[T any](db Reader, kind, owner string, prev []decoded[T], parse func(string) (T, error)) (out []decoded[T], same bool, err error) {
	recs := db.List(kind)
	out = make([]decoded[T], 0, len(recs))
	kept, i := 0, 0
	for _, rec := range recs {
		if !ownedBy(rec.Key, owner) {
			continue
		}
		// List returns the records in key order, as prev holds them.
		for i < len(prev) && prev[i].key < rec.Key {
			i++
		}
		if i < len(prev) && prev[i].key == rec.Key && prev[i].xml == rec.XML {
			out = append(out, prev[i])
			kept++
			continue
		}
		v, err := parse(rec.XML)
		if err != nil {
			return nil, false, fmt.Errorf("partydb: %s %s: %w", kind, rec.Key, err)
		}
		out = append(out, decoded[T]{key: rec.Key, xml: rec.XML, val: v})
	}
	return out, kept == len(out) && kept == len(prev), nil
}

// loadOntology gets the owner's ontology record and decodes it, unless
// its key and XML equal prev's, whose value it keeps. No record is the
// zero entry.
func loadOntology(db Reader, owner string, prev decoded[*ontology.Ontology]) (decoded[*ontology.Ontology], error) {
	rec, err := db.Get(KindOntology, owner)
	if err != nil {
		return decoded[*ontology.Ontology]{}, nil // not stored
	}
	if prev.val != nil && prev.key == rec.Key && prev.xml == rec.XML {
		return prev, nil
	}
	o, err := ontology.ParseOntology(rec.XML)
	if err != nil {
		return decoded[*ontology.Ontology]{}, err
	}
	return decoded[*ontology.Ontology]{key: rec.Key, xml: rec.XML, val: o}, nil
}

// newProfile builds the owner's profile of the decoded credentials.
func newProfile(owner string, creds []decoded[*xtnl.Credential]) *xtnl.Profile {
	p := xtnl.NewProfile(owner)
	p.Add(values(creds)...)
	return p
}

// newPolicySet builds the policy set of the decoded policies.
func newPolicySet(pols []decoded[*xtnl.Policy]) (*xtnl.PolicySet, error) {
	return xtnl.NewPolicySet(values(pols)...)
}

// values returns the decoded values in order.
func values[T any](ds []decoded[T]) []T {
	out := make([]T, len(ds))
	for i, d := range ds {
		out[i] = d.val
	}
	return out
}

// SaveResumeTicket persists a suspended negotiation's resume ticket.
func SaveResumeTicket(db *store.Store, owner string, t *negotiation.ResumeTicket) error {
	if err := checkOwner(owner); err != nil {
		return err
	}
	if t.NegID == "" {
		return fmt.Errorf("partydb: resume ticket without negotiation id")
	}
	if err := db.PutXML(KindResumeTicket, credKey(owner, t.NegID), t.XML()); err != nil {
		return err
	}
	return db.Sync()
}

// LoadResumeTickets reads the owner's stored resume tickets, dropping
// expired ones from the store as a side effect.
func LoadResumeTickets(db *store.Store, owner string, now time.Time) ([]*negotiation.ResumeTicket, error) {
	if err := checkOwner(owner); err != nil {
		return nil, err
	}
	var out []*negotiation.ResumeTicket
	for _, rec := range db.List(KindResumeTicket) {
		if !ownedBy(rec.Key, owner) {
			continue
		}
		t, err := negotiation.ParseResumeTicket(rec.XML)
		if err != nil {
			return nil, fmt.Errorf("partydb: resume ticket %s: %w", rec.Key, err)
		}
		if now.After(t.Expires) {
			db.Delete(KindResumeTicket, rec.Key)
			continue
		}
		out = append(out, t)
	}
	return out, nil
}

// PoliciesProtecting returns the stored policies of owner whose resource
// equals the requested credential type — the PolicyExchange lookup of
// §6.2 ("checks if the database contains disclosure policies protecting
// the credentials requested in the counterpart's disclosure policies").
func PoliciesProtecting(db Reader, owner, resource string) ([]*xtnl.Policy, error) {
	ps, err := LoadPolicies(db, owner)
	if err != nil {
		return nil, err
	}
	return ps.For(resource), nil
}
