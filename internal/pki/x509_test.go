package pki

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func TestMembershipIssueAndVerify(t *testing.T) {
	voa, err := NewVOAuthority("AircraftOptimizationVO")
	if err != nil {
		t.Fatal(err)
	}
	tok, err := voa.IssueMembership("AerospaceCo", "DesignWebPortal", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if tok.VO != "AircraftOptimizationVO" || tok.Role != "DesignWebPortal" || tok.Member != "AerospaceCo" {
		t.Fatalf("token fields: %+v", tok)
	}
	got, err := voa.VerifyMembership(tok.DER)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if got.VO != tok.VO || got.Role != tok.Role || got.Member != tok.Member {
		t.Fatalf("decoded token = %+v, want %+v", got, tok)
	}
	// §5.1: the token carries the VO's public key for in-VO authentication.
	if !bytes.Equal(got.VOKey, voa.Keys.Public) {
		t.Fatal("token does not carry the VO public key")
	}
}

func TestMembershipRejectsForeignCA(t *testing.T) {
	voa1, _ := NewVOAuthority("VO1")
	voa2, _ := NewVOAuthority("VO2")
	tok, err := voa1.IssueMembership("m", "r", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := voa2.VerifyMembership(tok.DER); err == nil {
		t.Fatal("membership from foreign VO accepted")
	}
}

func TestMembershipRejectsGarbage(t *testing.T) {
	voa, _ := NewVOAuthority("VO")
	if _, err := voa.VerifyMembership([]byte("not a cert")); err == nil {
		t.Fatal("garbage DER accepted")
	}
}

func TestMembershipValidation(t *testing.T) {
	voa, _ := NewVOAuthority("VO")
	if _, err := voa.IssueMembership("", "r", 0); err == nil {
		t.Fatal("empty member accepted")
	}
	if _, err := voa.IssueMembership("m", "", 0); err == nil {
		t.Fatal("empty role accepted")
	}
}

func TestMembershipPEMEncodes(t *testing.T) {
	voa, _ := NewVOAuthority("VO")
	tok, _ := voa.IssueMembership("m", "r", time.Hour)
	p := tok.PEM()
	if !bytes.Contains(p, []byte("BEGIN CERTIFICATE")) {
		t.Fatalf("PEM output malformed: %s", p)
	}
	if !bytes.Contains(voa.CACertPEM(), []byte("BEGIN CERTIFICATE")) {
		t.Fatal("CA PEM malformed")
	}
}

func TestIssuedTokenMatchesCertificate(t *testing.T) {
	voa, err := NewVOAuthority("VO")
	if err != nil {
		t.Fatal(err)
	}
	for _, lifetime := range []time.Duration{0, time.Hour, 90*time.Minute + 500*time.Millisecond} {
		tok, err := voa.IssueMembership("m", "r", lifetime)
		if err != nil {
			t.Fatal(err)
		}
		got, err := voa.VerifyMembership(tok.DER)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tok, got) {
			t.Fatalf("lifetime %v: issued token %s %s %s, %v to %v; certificate says %s %s %s, %v to %v",
				lifetime, tok.VO, tok.Role, tok.Member, tok.NotBefore, tok.NotAfter,
				got.VO, got.Role, got.Member, got.NotBefore, got.NotAfter)
		}
	}
}

func TestIssueMembershipAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	voa, err := NewVOAuthority("AircraftOptimizationVO")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := voa.IssueMembership("AerospaceCo", "DesignWebPortal", time.Hour); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("IssueMembership: %v allocations, want at most 10", allocs)
	}
}

// TestVerifyMembershipConcurrent verifies tokens from several goroutines
// against the authority's one CA, each read through a pooled reader.
func TestVerifyMembershipConcurrent(t *testing.T) {
	voa, err := NewVOAuthority("VO")
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewVOAuthority("VO")
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.IssueMembership("m0", "r", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	toks := make([]*MembershipToken, 4)
	for i := range toks {
		if toks[i], err = voa.IssueMembership(fmt.Sprintf("m%d", i), "r", time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tok := toks[(g+i)%len(toks)]
				got, err := voa.VerifyMembership(tok.DER)
				if err != nil || got.Member != tok.Member {
					t.Errorf("verify %s: %v, %+v", tok.Member, err, got)
					return
				}
				if _, err := voa.VerifyMembership(foreign.DER); err == nil {
					t.Error("token of another VO's CA verified")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestVerifyMembershipRefusals checks that each refusal wraps its
// sentinel: a window that does not hold, the token's or the CA's,
// ErrExpired; another VO's token, ErrUnknownIssuer; a tampered
// signature, ErrBadSignature. What is not a token as mint writes it
// fails to decode, with none of them.
func TestVerifyMembershipRefusals(t *testing.T) {
	kp := fixedKeys(1)
	voa, err := newVOAuthority("VO", kp, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	other, err := newVOAuthority("VO", fixedKeys(2), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	// The CA of ten years and a day ago, whose window has closed.
	lapsed, err := newVOAuthority("VO", kp, time.Now().Add(-(10*365+1)*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	key := fixedKeys(3).Public
	now := time.Now()
	mintFor := func(a *VOAuthority, from, until time.Time) []byte {
		t.Helper()
		der, err := a.mintMembership("m", "r", 2, key, from, until)
		if err != nil {
			t.Fatal(err)
		}
		return der
	}
	good := mintFor(voa, now.Add(-time.Minute), now.Add(time.Hour))
	if _, err := voa.VerifyMembership(good); err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), good...)
	tampered[len(tampered)-1] ^= 1
	for _, c := range []struct {
		name string
		by   *VOAuthority
		der  []byte
		want error
	}{
		{"a window in the past", voa, mintFor(voa, now.Add(-2*time.Hour), now.Add(-time.Hour)), ErrExpired},
		{"a window in the future", voa, mintFor(voa, now.Add(time.Hour), now.Add(2*time.Hour)), ErrExpired},
		{"a window the lapsed CA's does not hold", lapsed, mintFor(lapsed, now.Add(-time.Minute), now.Add(time.Hour)), ErrExpired},
		{"another VO's CA of the same name", voa, mintFor(other, now.Add(-time.Minute), now.Add(time.Hour)), ErrUnknownIssuer},
		{"a tampered signature", voa, tampered, ErrBadSignature},
	} {
		if _, err := c.by.VerifyMembership(c.der); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
	// Expiry is checked before the signature.
	expired := mintFor(voa, now.Add(-2*time.Hour), now.Add(-time.Hour))
	expired[len(expired)-1] ^= 1
	if _, err := voa.VerifyMembership(expired); !errors.Is(err, ErrExpired) {
		t.Errorf("expired and tampered: %v, want %v", err, ErrExpired)
	}
	ca := MustNewAuthority("CertCA")
	_, attr, err := ca.IssueX509Attribute(IssueRequest{Type: "T", Holder: "h"})
	if err != nil {
		t.Fatal(err)
	}
	for _, der := range [][]byte{voa.ca.der, attr, good[:len(good)-1], append(good[:len(good):len(good)], 0)} {
		_, err := voa.VerifyMembership(der)
		if err == nil || errors.Is(err, ErrExpired) || errors.Is(err, ErrUnknownIssuer) || errors.Is(err, ErrBadSignature) {
			t.Errorf("not a membership token as written: %v", err)
		}
	}
}

// TestVerifyMembershipAllocs bounds what checking a token allocates:
// one string of the TBSCertificate, the token and its copy of the VO
// key. crypto/x509's parser and chain check made 66.
func TestVerifyMembershipAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	voa, err := NewVOAuthority("AircraftOptimizationVO")
	if err != nil {
		t.Fatal(err)
	}
	tok, err := voa.IssueMembership("AerospaceCo", "DesignWebPortal", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := voa.VerifyMembership(tok.DER); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("VerifyMembership: %v allocations, want at most 3", allocs)
	}
}

func BenchmarkVerifyMembership(b *testing.B) {
	voa, _ := NewVOAuthority("VO")
	tok, err := voa.IssueMembership("m", "r", time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := voa.VerifyMembership(tok.DER); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIssueMembership(b *testing.B) {
	voa, _ := NewVOAuthority("VO")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := voa.IssueMembership("m", "r", time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}
