package wsrpc

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"trustvo/internal/negotiation"
)

// TestMemberClientAuditTimeFailsClosed answers /vo/audit from a stub with
// an entry whose time is missing or not RFC 3339: each call must fail,
// where a well-formed log reads as sent.
func TestMemberClientAuditTimeFailsClosed(t *testing.T) {
	var body atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		SetContentType(w.Header())
		fmt.Fprint(w, body.Load())
	}))
	defer srv.Close()
	c := &MemberClient{BaseURL: srv.URL, Party: &negotiation.Party{Name: "m"}}
	good := `<entry allowed="true" at="2030-01-02T03:04:05Z" member="m" operation="op"/>`
	for _, at := range []string{"", `at=""`, `at="yesterday"`, `at="2030-01-02 03:04:05Z"`, `at="2030-01-02T03:04:05"`, `at="2030-13-02T03:04:05Z"`} {
		reply := `<audit>` + good + `<entry allowed="false" ` + at + ` member="m" operation="op"/></audit>`
		body.Store(reply)
		if entries, err := c.Audit(bg); err == nil {
			t.Errorf("Audit of %s = %+v, nil", reply, entries)
		}
	}
	body.Store(`<audit>` + good + `</audit>`)
	want := []AuditEntry{{Member: "m", Operation: "op", Allowed: true, At: time.Date(2030, 1, 2, 3, 4, 5, 0, time.UTC)}}
	if entries, err := c.Audit(bg); err != nil || len(entries) != 1 || !entries[0].At.Equal(want[0].At) ||
		entries[0].Member != "m" || entries[0].Operation != "op" || !entries[0].Allowed {
		t.Errorf("Audit = %+v, %v; want %+v", entries, err, want)
	}
}
