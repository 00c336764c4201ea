package wsrpc

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestReadBodyIgnoresDeclaredLength: a peer that declares a MaxBody-sized
// Content-Length and sends nothing must not make the server allocate
// anything near that size before the body arrives; a body past MaxBody
// is cut there. Both fail to parse: /registry/publish answers 400
// parse.
func TestReadBodyIgnoresDeclaredLength(t *testing.T) {
	tk := new(ToolkitService) // a body that does not parse reaches no registry
	publish := func(body string, declared int64) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/registry/publish", nil)
		r.Body = io.NopCloser(strings.NewReader(body))
		r.ContentLength = declared
		rec := httptest.NewRecorder()
		tk.handlePublish(rec, r)
		return rec
	}
	parseFault := func(rec *httptest.ResponseRecorder) bool {
		return rec.Code == http.StatusBadRequest && strings.HasPrefix(rec.Body.String(), `<fault code="parse">`)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if rec := publish("", MaxBody); !parseFault(rec) {
			t.Fatalf("an empty body: %d %s", rec.Code, rec.Body)
		}
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead > 64<<10 {
		t.Errorf("reading an empty body that declares %d bytes allocates %d bytes", MaxBody, perRead)
	}

	caps := strings.Repeat(`<capability name="c"/>`, MaxBody/22+1)
	long := `<serviceDescription provider="p" service="s">` + caps + `</serviceDescription>`
	if rec := publish(long, int64(len(long))); !parseFault(rec) {
		t.Fatalf("a description of %d bytes, past MaxBody: %d %s", len(long), rec.Code, rec.Body)
	}
}
