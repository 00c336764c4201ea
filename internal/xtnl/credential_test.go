package xtnl

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func iso9000Credential() *Credential {
	return &Credential{
		ID:          "cred-42",
		Type:        "ISO 9000 Certified",
		Issuer:      "INFN",
		Holder:      "AerospaceCo",
		ValidFrom:   time.Date(2009, 10, 26, 21, 32, 52, 0, time.UTC),
		ValidUntil:  time.Date(2010, 10, 26, 21, 32, 52, 0, time.UTC),
		Sensitivity: SensitivityLow,
		Attributes:  []Attribute{{Name: "QualityRegulation", Value: "UNI EN ISO 9000"}},
	}
}

// TestFig6CredentialGolden reproduces the paper's Fig. 6: the "ISO 9000
// Certified" credential issued by INFN, valid 2009-10-26T21:32:52 to
// 2010-10-26T21:32:52, with the single QualityRegulation attribute, laid
// out as <credential><header/><content/><signature/></credential>.
func TestFig6CredentialGolden(t *testing.T) {
	c := iso9000Credential()
	c.Signature = []byte("issuer-signature")
	got := c.XML()
	for _, frag := range []string{
		`<credential`,
		`type="ISO 9000 Certified"`,
		`<credType>ISO 9000 Certified</credType>`,
		`<issuer>INFN</issuer>`,
		`<issue_Date>2009-10-26T21:32:52</issue_Date>`,
		`<expiration_Date>2010-10-26T21:32:52</expiration_Date>`,
		`<QualityRegulation>UNI EN ISO 9000</QualityRegulation>`,
		`<signature>`,
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("Fig. 6 layout missing %q in:\n%s", frag, got)
		}
	}
	// header precedes content precedes signature, as in the figure
	h, ct, sg := strings.Index(got, "<header>"), strings.Index(got, "<content>"), strings.Index(got, "<signature>")
	if !(h < ct && ct < sg) {
		t.Errorf("element order wrong: header@%d content@%d signature@%d", h, ct, sg)
	}
}

func TestCredentialRoundTrip(t *testing.T) {
	c := iso9000Credential()
	c.Signature = []byte{1, 2, 3, 255}
	c.HolderKey = []byte{9, 9}
	re, err := ParseCredential(c.XML())
	if err != nil {
		t.Fatal(err)
	}
	if re.ID != c.ID || re.Type != c.Type || re.Issuer != c.Issuer || re.Holder != c.Holder {
		t.Fatalf("identity fields lost: %+v", re)
	}
	if !re.ValidFrom.Equal(c.ValidFrom) || !re.ValidUntil.Equal(c.ValidUntil) {
		t.Fatalf("validity lost: %v %v", re.ValidFrom, re.ValidUntil)
	}
	if re.Sensitivity != SensitivityLow {
		t.Fatalf("sensitivity lost: %v", re.Sensitivity)
	}
	if v, ok := re.Attr("QualityRegulation"); !ok || v != "UNI EN ISO 9000" {
		t.Fatalf("attribute lost: %q %v", v, ok)
	}
	if string(re.Signature) != string(c.Signature) {
		t.Fatalf("signature lost")
	}
	if string(re.HolderKey) != string(c.HolderKey) {
		t.Fatalf("holder key lost")
	}
}

func TestSignedBytesExcludeSignature(t *testing.T) {
	c := iso9000Credential()
	unsigned := string(c.SignedBytes())
	c.Signature = []byte("sig")
	signed := string(c.SignedBytes())
	if unsigned != signed {
		t.Fatal("SignedBytes must not depend on the signature value")
	}
	if strings.Contains(unsigned, "<signature>") {
		t.Fatal("SignedBytes must omit the signature element")
	}
}

func TestValidAt(t *testing.T) {
	c := iso9000Credential()
	cases := []struct {
		at   time.Time
		want bool
	}{
		{time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC), true},
		{time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{c.ValidFrom, true},
		{c.ValidUntil, true},
	}
	for _, tc := range cases {
		if got := c.ValidAt(tc.at); got != tc.want {
			t.Errorf("ValidAt(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	open := &Credential{Type: "T"}
	if !open.ValidAt(time.Now()) {
		t.Error("credential without validity window should always be valid")
	}
}

// TestCredentialSatisfies checks a credential against terms of its
// type: conditions are evaluated with the credential document as
// context, so they may be absolute or relative; every condition must
// hold, and a term without conditions holds.
func TestCredentialSatisfies(t *testing.T) {
	c := iso9000Credential()
	ok := `/credential/content/QualityRegulation='UNI EN ISO 9000'`
	bad := `/credential/content/QualityRegulation='ISO 14000'`
	for _, tc := range []struct {
		conds []string
		want  bool
	}{
		{[]string{ok}, true},
		{[]string{`content/QualityRegulation='UNI EN ISO 9000'`}, true},
		{[]string{`//QualityRegulation='UNI EN ISO 9000'`}, true},
		{[]string{ok, bad}, false},
		{[]string{bad, ok}, false},
		{nil, true},
	} {
		term := Term{CredType: c.Type, Conditions: tc.conds}
		if got := term.SatisfiedBy(c); got != tc.want {
			t.Errorf("%q: SatisfiedBy = %v, want %v", tc.conds, got, tc.want)
		}
	}
}

// TestConditionNumbersFollowXPath10 checks that conditions read
// credential values as XPath 1.0 numbers, both for a received credential
// (Term.SatisfiedBy) and for the party's own (Profile.Satisfying):
// "1e3", "+1000" and "Infinity" are not numbers, so "level > 500" does
// not hold for them.
func TestConditionNumbersFollowXPath10(t *testing.T) {
	term := Term{CredType: "Clearance", Conditions: []string{"/credential/content/level > 500"}}
	for _, tc := range []struct {
		level string
		want  bool
	}{
		{"1000", true}, {" 1000 ", true}, {"1000.0", true}, {"-1000", false},
		{"1e3", false}, {"+1000", false}, {"Infinity", false},
	} {
		c := (&Credential{ID: "c", Type: "Clearance", Issuer: "CA"}).SetAttr("level", tc.level)
		if got := term.SatisfiedBy(c); got != tc.want {
			t.Errorf("level %q: SatisfiedBy = %v, want %v", tc.level, got, tc.want)
		}
		p := NewProfile("holder")
		p.Add(c)
		if got := len(p.Satisfying(term)) == 1; got != tc.want {
			t.Errorf("level %q: Satisfying = %v, want %v", tc.level, got, tc.want)
		}
	}
}

func TestParseCredentialErrors(t *testing.T) {
	cases := []struct {
		name string
		xml  string
	}{
		{"not xml", `<credential`},
		{"wrong root", `<policy/>`},
		{"no header", `<credential type="T"><content/></credential>`},
		{"no type", `<credential><header><issuer>I</issuer></header></credential>`},
		{"type mismatch", `<credential type="A"><header><credType>B</credType></header></credential>`},
		{"bad time", `<credential type="T"><header><credType>T</credType><expiration_Date>nope</expiration_Date></header></credential>`},
		{"bad signature b64", `<credential type="T"><header><credType>T</credType></header><signature>!!</signature></credential>`},
		{"bad holder key b64", `<credential type="T"><header><credType>T</credType><holderKey>!!</holderKey></header></credential>`},
	}
	for _, tc := range cases {
		if _, err := ParseCredential(tc.xml); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestSensitivityParsing(t *testing.T) {
	cases := map[string]Sensitivity{
		"low": SensitivityLow, "LOW": SensitivityLow,
		"medium": SensitivityMedium, "": SensitivityMedium, "weird": SensitivityMedium,
		"high": SensitivityHigh, " High ": SensitivityHigh,
	}
	for in, want := range cases {
		if got := ParseSensitivity(in); got != want {
			t.Errorf("ParseSensitivity(%q) = %v, want %v", in, got, want)
		}
	}
	for _, s := range []Sensitivity{SensitivityLow, SensitivityMedium, SensitivityHigh} {
		if ParseSensitivity(s.String()) != s {
			t.Errorf("String/Parse not inverse for %v", s)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	c := iso9000Credential()
	c.Signature = []byte{1}
	cp := c.Clone()
	cp.SetAttr("QualityRegulation", "changed")
	cp.Signature[0] = 2
	if v, _ := c.Attr("QualityRegulation"); v != "UNI EN ISO 9000" {
		t.Fatal("clone attribute mutation leaked")
	}
	if c.Signature[0] != 1 {
		t.Fatal("clone signature mutation leaked")
	}
}

func TestSetAttrReplaces(t *testing.T) {
	c := &Credential{Type: "T"}
	c.SetAttr("k", "1").SetAttr("k", "2")
	if len(c.Attributes) != 1 {
		t.Fatalf("SetAttr duplicated: %v", c.Attributes)
	}
	if v, _ := c.Attr("k"); v != "2" {
		t.Fatalf("SetAttr did not replace: %v", v)
	}
}

// Property: any credential with printable attribute data round-trips
// through XML without loss.
func TestQuickCredentialRoundTrip(t *testing.T) {
	f := func(id, typ, issuer string, names, values []string, sens uint8) bool {
		if typ == "" || strings.ContainsAny(typ, "\x00") {
			return true // type required; control chars not valid XML
		}
		c := &Credential{
			ID:          sanitize(id),
			Type:        sanitize(typ),
			Issuer:      sanitize(issuer),
			Sensitivity: Sensitivity(sens % 3),
		}
		if c.Type == "" {
			return true
		}
		for i := range names {
			name := "a" + attrSafe(names[i])
			if i < len(values) {
				c.SetAttr(name, sanitize(values[i]))
			} else {
				c.SetAttr(name, "v")
			}
		}
		re, err := ParseCredential(c.XML())
		if err != nil {
			t.Logf("round trip parse failed for %s: %v", c.XML(), err)
			return false
		}
		if re.Type != c.Type || re.Issuer != c.Issuer || re.ID != c.ID || re.Sensitivity != c.Sensitivity {
			return false
		}
		for _, a := range c.Attributes {
			if v, ok := re.Attr(a.Name); !ok || v != a.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// sanitize strips characters that are not legal in XML 1.0 documents or
// that the whitespace-normalizing parser does not preserve verbatim.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 0x20 && r != 0x7F && r <= 0xD7FF {
			b.WriteRune(r)
		}
	}
	return strings.TrimSpace(b.String())
}

// attrSafe maps arbitrary strings onto XML-name-safe suffixes.
func attrSafe(s string) string {
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	if b.Len() > 10 {
		return b.String()[:10]
	}
	return b.String()
}
