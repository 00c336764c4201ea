package wsrpc

import (
	"strings"
	"testing"
	"unsafe"

	"trustvo/internal/xmldom"
)

// within reports whether s's bytes lie inside buf's: a substring of a
// parsed body keeps the whole body alive.
func within(s, buf string) bool {
	if s == "" {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	b := uintptr(unsafe.Pointer(unsafe.StringData(buf)))
	return p >= b && p < b+uintptr(len(buf))
}

// tableEntry returns the session table's key for id and its session.
func tableEntry(s *TNService, id string) (string, *tnSession) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for k, sess := range sh.m {
		if k == id {
			return k, sess
		}
	}
	return "", nil
}

// TestEnsureSessionClonesID checks that the session table keys a
// session the cluster router materializes by its own copy of the id,
// not by the substring of the request body the router parsed it from.
func TestEnsureSessionClonesID(t *testing.T) {
	svc, _, _ := standaloneTN(t)
	body := `<envelope negotiation="n-4711" seq="1">` + strings.Repeat("<pad/>", 2000) + `</envelope>`
	env, err := xmldom.ParseString(body)
	if err != nil {
		t.Fatal(err)
	}
	id := env.AttrOr("negotiation", "")
	if !within(id, body) {
		t.Fatal("test setup: the parsed id is not a substring of the body")
	}
	if err := svc.EnsureSession(id); err != nil {
		t.Fatal(err)
	}
	key, sess := tableEntry(svc, id)
	if sess == nil {
		t.Fatal("session not materialized")
	}
	if within(key, body) {
		t.Fatal("the session table's key pins the whole request body")
	}
}

// TestAdoptSessionDocClonesStrings checks that an adopted session keeps
// none of the shipped body alive: neither its table key nor the reply
// cache it keeps after finishing.
func TestAdoptSessionDocClonesStrings(t *testing.T) {
	svc, _, _ := standaloneTN(t)
	body := `<tnSession id="n-0815" done="true" lastSeq="3" lastStatus="200">` +
		`<outcome succeeded="true" resource="R" reason="granted"/>` +
		`<lastReply>` + strings.Repeat("r", 4096) + `</lastReply></tnSession>`
	id, err := svc.AdoptSessionDoc(body)
	if err != nil {
		t.Fatal(err)
	}
	key, sess := tableEntry(svc, id)
	if sess == nil {
		t.Fatal("session not adopted")
	}
	if within(id, body) || within(key, body) {
		t.Error("the adopted session's id pins the shipped body")
	}
	if sess.lastReply == "" || within(sess.lastReply, body) {
		t.Error("the adopted session's reply cache pins the shipped body")
	}
	if out := sess.outcome; out == nil || within(out.Resource, body) || within(out.Reason, body) {
		t.Errorf("the adopted session's verdict %+v pins the shipped body", out)
	}
}
