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
	p := xtnl.NewProfile(owner)
	prefix := owner + "/"
	for _, rec := range db.List(KindCredential) {
		if len(rec.Key) <= len(prefix) || rec.Key[:len(prefix)] != prefix {
			continue
		}
		c, err := xtnl.ParseCredential(rec.XML)
		if err != nil {
			return nil, fmt.Errorf("partydb: credential %s: %w", rec.Key, err)
		}
		p.Add(c)
	}
	return p, nil
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
	ps, _ := xtnl.NewPolicySet()
	prefix := owner + "/"
	for _, rec := range db.List(KindPolicy) {
		if len(rec.Key) <= len(prefix) || rec.Key[:len(prefix)] != prefix {
			continue
		}
		pol, err := xtnl.ParsePolicy(rec.XML)
		if err != nil {
			return nil, fmt.Errorf("partydb: policy %s: %w", rec.Key, err)
		}
		if err := ps.Add(pol); err != nil {
			return nil, err
		}
	}
	return ps, nil
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
	rec, err := db.Get(KindOntology, owner)
	if err != nil {
		return nil, nil // not stored
	}
	return ontology.ParseOntology(rec.XML)
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
// ontology.
func LoadParty(db Reader, template *negotiation.Party) (*negotiation.Party, error) {
	p := *template
	var err error
	if p.Profile, err = LoadProfile(db, template.Name); err != nil {
		return nil, err
	}
	if p.Policies, err = LoadPolicies(db, template.Name); err != nil {
		return nil, err
	}
	o, err := LoadOntology(db, template.Name)
	if err != nil {
		return nil, err
	}
	if o != nil {
		p.Mapper = &ontology.Mapper{Ontology: o, Profile: p.Profile}
	}
	return &p, nil
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
	prefix := owner + "/"
	var out []*negotiation.ResumeTicket
	for _, rec := range db.List(KindResumeTicket) {
		if len(rec.Key) <= len(prefix) || rec.Key[:len(prefix)] != prefix {
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
