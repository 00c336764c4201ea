package wsrpc

import (
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestReadBodyIgnoresDeclaredLength: a peer that declares a MaxBody-sized
// Content-Length and sends nothing must not make the server allocate
// anything near that size before the body arrives.
func TestReadBodyIgnoresDeclaredLength(t *testing.T) {
	r, err := http.NewRequest(http.MethodPost, "/tn/start", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body = io.NopCloser(strings.NewReader(""))
	r.ContentLength = MaxBody
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := readBodyDOM(r); err == nil {
			t.Fatal("an empty body parsed")
		}
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead > 64<<10 {
		t.Errorf("reading an empty body that declares %d bytes allocates %d bytes", MaxBody, perRead)
	}
}
