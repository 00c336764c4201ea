package pki

import (
	"errors"
	"testing"
	"time"

	"trustvo/internal/xtnl"
)

// TestIssueRefusesCredentialsThatCannotCrossTheWire lists members an
// authority used to sign although the receiver could not verify them:
// the parser normalizes carriage returns and drops white-space-only
// text, cannot carry NUL or invalid UTF-8, and resolves a prefixed name
// into Clark notation. Issue must refuse each with a typed error, and
// every credential it accepts must verify after an XML round trip.
func TestIssueRefusesCredentialsThatCannotCrossTheWire(t *testing.T) {
	ca := MustNewAuthority("INFN")
	ts := NewTrustStore(ca)
	attr := func(name, value string) IssueRequest {
		return IssueRequest{Type: "T", Holder: "h", Attributes: []xtnl.Attribute{{Name: name, Value: value}}}
	}
	cases := []struct {
		name   string
		req    IssueRequest
		refuse bool
	}{
		{"value with CR", attr("a", "a\rb"), true},
		{"value with CRLF", attr("a", "a\r\nb"), true},
		{"white-space-only value", attr("a", " "), true},
		{"NBSP-only value", attr("a", "\u00a0"), true},
		{"holder with CR", IssueRequest{Type: "T", Holder: "h\r"}, true},
		{"white-space-only holder", IssueRequest{Type: "T", Holder: "\t"}, true},
		{"type with CR", IssueRequest{Type: "T\r"}, true},
		{"value with NUL", attr("a", "a\x00b"), true},
		{"value with invalid UTF-8", attr("a", "a\xffb"), true},
		{"name with a space", attr("a b", "v"), true},
		{"name starting with a digit", attr("1x", "v"), true},
		{"empty name", attr("", "v"), true},
		{"name with a colon", attr("x:y", "v"), true},
		{"validity past year 9999", IssueRequest{Type: "T", ValidFrom: time.Date(9999, 6, 1, 0, 0, 0, 0, time.UTC)}, true},

		{"plain", attr("QualityRegulation", "UNI EN ISO 9000"), false},
		{"empty value", attr("a", ""), false},
		{"padded value", attr("a", "  x  "), false},
		{"value with LF and tab", attr("a", "line1\n\tline2"), false},
		{"value with markup characters", attr("a", `<x a="1"> & ]]>`), false},
		{"non-ASCII name and value", attr("qualité", "été \U0001F600"), false},
		{"no holder", IssueRequest{Type: "T"}, false},
	}
	for _, tc := range cases {
		cred, err := ca.Issue(tc.req)
		if tc.refuse {
			var ee *xtnl.EncodeError
			if err == nil || !errors.As(err, &ee) || !errors.Is(err, xtnl.ErrUnencodable) {
				t.Errorf("%s: Issue = %v, want an *xtnl.EncodeError", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Issue: %v", tc.name, err)
			continue
		}
		back, err := xtnl.ParseCredential(cred.XML())
		if err != nil {
			t.Errorf("%s: parse: %v", tc.name, err)
			continue
		}
		if err := ts.Verify(back, time.Now()); err != nil {
			t.Errorf("%s: verify after round trip: %v", tc.name, err)
		}
	}
}
