package partydb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"trustvo/internal/negotiation"
	"trustvo/internal/ontology"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/xtnl"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// describe renders what a party holds of the store: each credential's
// ID and encoding and each policy's encoding in order, the alternatives
// For returns for every resource, and the ontology with whether its
// Mapper reads the party's own profile.
func describe(p *negotiation.Party) string {
	var b strings.Builder
	for _, c := range p.Profile.All() {
		fmt.Fprintf(&b, "credential %s %s\n", c.ID, c.XML())
	}
	for _, pol := range p.Policies.All() {
		fmt.Fprintf(&b, "policy %s\n", pol.DOM().XML())
	}
	res := p.Policies.Resources()
	sort.Strings(res)
	for _, r := range res {
		for _, pol := range p.Policies.For(r) {
			fmt.Fprintf(&b, "for %s: %s\n", r, pol.DOM().XML())
		}
	}
	if p.Mapper != nil {
		fmt.Fprintf(&b, "ontology %s (own profile: %t)\n", p.Mapper.Ontology.DOM().XML(), p.Mapper.Profile == p.Profile)
	}
	return b.String()
}

// reloadPool is what FuzzPartyReload writes: for each kind, the keys a
// step may name (the party's own, another owner's, one sharing the
// party's name as a prefix, and the bare owner prefix) and the
// documents it may put there, one of which does not decode.
type reloadPool struct {
	kinds []string
	keys  map[string][]string
	docs  map[string][]string
}

var fuzzPool = sync.OnceValue(func() *reloadPool {
	ca := pki.MustNewAuthority("CertCA")
	p := &reloadPool{
		kinds: []string{KindCredential, KindPolicy, KindOntology},
		keys: map[string][]string{
			KindCredential: {"AerospaceCo/c0", "AerospaceCo/c1", "AerospaceCo/c2", "OtherCo/c0", "AerospaceCo2/c0", "AerospaceCo/", "AerospaceCo"},
			KindPolicy:     {"AerospaceCo/p0", "AerospaceCo/p1", "AerospaceCo/p2", "OtherCo/p0", "AerospaceCo2/p0", "AerospaceCo/", "AerospaceCo"},
			KindOntology:   {"AerospaceCo", "OtherCo", "AerospaceCo/"},
		},
		docs: map[string][]string{},
	}
	for i, typ := range []string{"WebDesignerQuality", "AAAMember", "ISOCert", "AAAMember"} {
		c := ca.MustIssue(pki.IssueRequest{Type: typ, Holder: "AerospaceCo",
			Attributes: []xtnl.Attribute{{Name: "n", Value: fmt.Sprint(i)}}})
		p.docs[KindCredential] = append(p.docs[KindCredential], c.XML())
	}
	for _, src := range []string{
		"WebDesignerQuality <- AAAccreditation",
		"WebDesignerQuality <- ISOCert",
		"AAAMember <- DELIV",
		"ISOCert <- AAAMember(n='1'), WebDesignerQuality",
	} {
		p.docs[KindPolicy] = append(p.docs[KindPolicy], xtnl.MustParsePolicies(src)[0].DOM().XML())
	}
	for _, names := range [][]string{{"quality-certification"}, {"quality-certification", "membership"}} {
		o := ontology.New()
		for _, name := range names {
			o.MustAdd(&ontology.Concept{Name: name,
				Implementations: []ontology.Implementation{{CredType: "WebDesignerQuality"}}})
		}
		p.docs[KindOntology] = append(p.docs[KindOntology], o.DOM().XML())
	}
	p.docs[KindCredential] = append(p.docs[KindCredential], `<credential/>`)
	p.docs[KindPolicy] = append(p.docs[KindPolicy], `<policy/>`)
	p.docs[KindOntology] = append(p.docs[KindOntology], `<credential/>`)
	return p
})

// FuzzPartyReload applies a sequence of puts and deletes of credentials,
// policies and an ontology, three bytes a step, and reloads after each
// step from the snapshot before it. Every reload must agree with a
// fresh LoadParty, fail where it fails, and leave the snapshot it
// started from as it was.
func FuzzPartyReload(f *testing.F) {
	// A step's first byte picks the kind (its value mod 3) and a delete
	// when its value div 3 is a multiple of 4: 0-2 delete, 3-5 put.
	for _, seed := range [][]byte{
		{3, 0, 0, 3, 1, 1, 4, 0, 0, 4, 1, 2, 5, 0, 0},                            // a party
		{3, 0, 0, 4, 0, 0, 4, 0, 1, 3, 0, 1, 5, 0, 0, 5, 0, 1},                   // new bytes under the same keys
		{3, 0, 0, 4, 0, 0, 3, 3, 1, 4, 4, 1, 3, 5, 2, 4, 6, 3, 5, 1, 0, 5, 2, 1}, // others' and prefix keys
		{3, 0, 0, 4, 0, 0, 5, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0},                   // deletes
		{3, 0, 0, 4, 0, 4, 4, 0, 0, 3, 1, 4, 3, 1, 1, 5, 0, 2, 5, 0, 0},          // records that do not decode
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, steps []byte) {
		pool := fuzzPool()
		db := store.New()
		template := &negotiation.Party{Name: "AerospaceCo"}
		var prev *Snapshot
		for i := 0; i+3 <= len(steps) && i < 3*64; i += 3 {
			kind := pool.kinds[int(steps[i])%len(pool.kinds)]
			keys, docs := pool.keys[kind], pool.docs[kind]
			key := keys[int(steps[i+1])%len(keys)]
			if steps[i]/3%4 == 0 {
				if err := db.Delete(kind, key); err != nil && !errors.Is(err, store.ErrNotFound) {
					t.Fatal(err)
				}
			} else if err := db.PutXML(kind, key, docs[int(steps[i+2])%len(docs)]); err != nil {
				t.Fatal(err)
			}

			var was string
			if prev != nil {
				was = describe(prev.Party())
			}
			next, err := Reload(db, template, prev)
			want, wantErr := LoadParty(db, template)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("step %d: Reload error %v, LoadParty error %v", i/3, err, wantErr)
			}
			if prev != nil {
				if now := describe(prev.Party()); now != was {
					t.Fatalf("step %d: the reload changed the snapshot it started from:\n%s\nwas:\n%s", i/3, now, was)
				}
			}
			if err != nil {
				continue
			}
			if got, want := describe(next.Party()), describe(want); got != want {
				t.Fatalf("step %d: reloaded party\n%s\nfresh LoadParty\n%s", i/3, got, want)
			}
			prev = next
		}
	})
}

// savedParty stores a party of n credentials and n policies, one
// resource apiece, and an ontology, and returns the store and the
// template that loads it.
func savedParty(t testing.TB, n int) (*store.Store, *negotiation.Party) {
	t.Helper()
	ca := pki.MustNewAuthority("CertCA")
	prof := xtnl.NewProfile("AircraftCo")
	ps, _ := xtnl.NewPolicySet()
	for i := 0; i < n; i++ {
		prof.Add(ca.MustIssue(pki.IssueRequest{Type: fmt.Sprintf("Cert%02d", i), Holder: "AircraftCo",
			Attributes: []xtnl.Attribute{{Name: "level", Value: fmt.Sprint(i)}}}))
		pol := xtnl.MustParsePolicies(fmt.Sprintf("Resource%02d <- Cert%02d(level='%d')", i, i, i))[0]
		pol.ID = fmt.Sprintf("pol-%02d", i)
		if err := ps.Add(pol); err != nil {
			t.Fatal(err)
		}
	}
	o := ontology.New()
	o.MustAdd(&ontology.Concept{Name: "certification",
		Implementations: []ontology.Implementation{{CredType: "Cert00"}}})
	p := &negotiation.Party{Name: "AircraftCo", Profile: prof, Policies: ps,
		Mapper: &ontology.Mapper{Ontology: o, Profile: prof}}
	db := store.New()
	if err := SaveParty(db, p); err != nil {
		t.Fatal(err)
	}
	return db, &negotiation.Party{Name: "AircraftCo"}
}

// rewritePolicy overwrites policy pol-NN of savedParty's store with one
// that asks for another level.
func rewritePolicy(t testing.TB, db *store.Store, i, level int) {
	t.Helper()
	pol := xtnl.MustParsePolicies(fmt.Sprintf("Resource%02d <- Cert%02d(level='%d')", i, i, level))[0]
	pol.ID = fmt.Sprintf("pol-%02d", i)
	if err := db.PutXML(KindPolicy, fmt.Sprintf("AircraftCo/pol-%02d", i), pol.DOM().XML()); err != nil {
		t.Fatal(err)
	}
}

// TestReloadReusesUnchangedRecords rewrites one policy: the reload
// decodes that record alone. Every credential and every other policy is
// the value the previous snapshot decoded, the profile and the ontology
// Mapper are kept, and the written policy is new.
func TestReloadReusesUnchangedRecords(t *testing.T) {
	db, template := savedParty(t, 32)
	s1, err := Reload(db, template, nil)
	if err != nil {
		t.Fatal(err)
	}
	rewritePolicy(t, db, 7, 99)
	s2, err := Reload(db, template, s1)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := s1.Party(), s2.Party()
	if p2.Profile != p1.Profile || p2.Mapper != p1.Mapper {
		t.Error("a policy write replaced the profile or the ontology Mapper")
	}
	if p2.Policies == p1.Policies {
		t.Fatal("a policy write kept the old policy set")
	}
	for i, pol := range p2.Policies.All() {
		if kept := pol == p1.Policies.All()[i]; kept != (i != 7) {
			t.Errorf("policy %d (%s): kept %t", i, pol.ID, kept)
		}
	}
	if got := p2.Policies.For("Resource07")[0].Terms[0].Conditions; len(got) != 1 || !strings.Contains(got[0], "99") {
		t.Errorf("the written policy reads %q", got)
	}
	fresh, err := LoadParty(db, template)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describe(p2), describe(fresh); got != want {
		t.Errorf("reloaded party\n%s\nfresh LoadParty\n%s", got, want)
	}
}

// TestReloadAllocations guards a reload after one policy write on a
// party of 32 credentials and 32 policies: at most 90 allocations. It
// takes 86, 70 of them the two store.List calls and their copies of the
// 64 records. Decoding every record again, as each reload did through
// LoadParty, took 337.
func TestReloadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	db, template := savedParty(t, 32)
	s1, err := Reload(db, template, nil)
	if err != nil {
		t.Fatal(err)
	}
	rewritePolicy(t, db, 7, 99)
	reload := func() {
		if _, err := Reload(db, template, s1); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, reload); allocs > 90 {
		t.Errorf("a reload after one policy write allocates %.1f times, want at most 90", allocs)
	}
}
