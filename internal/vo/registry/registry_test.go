package registry

import (
	"testing"
	"unsafe"

	"trustvo/internal/xmldom"
)

func TestPublishLookupWithdraw(t *testing.T) {
	r := New()
	d := &Description{
		Provider:     "HPCServiceCo",
		Service:      "NumericalSimulation",
		Capabilities: []string{"simulation", "cfd"},
		Endpoint:     "http://hpc.example/tn",
		Quality:      "ISO 9000",
	}
	if err := r.Publish(d); err != nil {
		t.Fatal(err)
	}
	got := r.Lookup("HPCServiceCo")
	if got == nil || got.Service != "NumericalSimulation" {
		t.Fatalf("Lookup = %+v", got)
	}
	// stored copy is isolated from the caller's value
	d.Capabilities[0] = "mutated"
	if r.Lookup("HPCServiceCo").Capabilities[0] != "simulation" {
		t.Fatal("registry stored a shared slice")
	}
	if !r.Withdraw("HPCServiceCo") {
		t.Fatal("withdraw failed")
	}
	if r.Withdraw("HPCServiceCo") {
		t.Fatal("double withdraw reported success")
	}
	if r.Lookup("HPCServiceCo") != nil {
		t.Fatal("lookup after withdraw")
	}
}

func TestPublishValidation(t *testing.T) {
	r := New()
	if err := r.Publish(&Description{Service: "s"}); err == nil {
		t.Fatal("provider-less description accepted")
	}
	if err := r.Publish(&Description{Provider: "p"}); err == nil {
		t.Fatal("service-less description accepted")
	}
}

func TestFindByCapabilities(t *testing.T) {
	r := New()
	r.Publish(&Description{Provider: "a", Service: "s", Capabilities: []string{"Design-DB", "viz"}})
	r.Publish(&Description{Provider: "b", Service: "s", Capabilities: []string{"design-db"}})
	r.Publish(&Description{Provider: "c", Service: "s", Capabilities: []string{"storage"}})

	got := r.FindByCapabilities([]string{"design-db"})
	if len(got) != 2 || got[0].Provider != "a" || got[1].Provider != "b" {
		t.Fatalf("find = %+v", got)
	}
	got = r.FindByCapabilities([]string{"design-db", "viz"})
	if len(got) != 1 || got[0].Provider != "a" {
		t.Fatalf("conjunctive find = %+v", got)
	}
	if got := r.FindByCapabilities(nil); len(got) != 3 {
		t.Fatalf("empty requirement = %d", len(got))
	}
	if got := r.FindByCapabilities([]string{"nope"}); len(got) != 0 {
		t.Fatalf("impossible requirement = %d", len(got))
	}
}

func TestPublishReplaces(t *testing.T) {
	r := New()
	r.Publish(&Description{Provider: "p", Service: "v1"})
	r.Publish(&Description{Provider: "p", Service: "v2"})
	if len(r.All()) != 1 || r.Lookup("p").Service != "v2" {
		t.Fatal("publish did not replace")
	}
}

func TestDOMRoundTrip(t *testing.T) {
	d := &Description{
		Provider:     "StorageCo",
		Service:      "IndustrialStorage",
		Capabilities: []string{"storage", "backup"},
		Endpoint:     "http://storage.example",
		Quality:      "tier-3",
	}
	re, err := decodeString(xmldom.String(d.Encode))
	if err != nil {
		t.Fatal(err)
	}
	if re.Provider != d.Provider || re.Service != d.Service || re.Endpoint != d.Endpoint || re.Quality != d.Quality {
		t.Fatalf("round trip = %+v", re)
	}
	if len(re.Capabilities) != 2 || re.Capabilities[1] != "backup" {
		t.Fatalf("capabilities = %v", re.Capabilities)
	}
	if _, err := decodeString("<wrong/>"); err == nil {
		t.Fatal("wrong root accepted")
	}
	if _, err := decodeString("<serviceDescription/>"); err == nil {
		t.Fatal("invalid description accepted")
	}
}

// decodeString decodes a whole document holding one description.
func decodeString(doc string) (*Description, error) {
	r := xmldom.NewReader(doc)
	if !r.Child(0) {
		return nil, r.Close()
	}
	d, err := DecodeDescription(r)
	if cerr := r.Close(); cerr != nil {
		return nil, cerr
	}
	return d, err
}

// TestPublishClonesStrings checks that a published description keeps
// none of the request body it was decoded from alive: /registry/publish
// decodes it from the body, and its strings are substrings of the whole
// body.
func TestPublishClonesStrings(t *testing.T) {
	body := `<serviceDescription provider="HPCServiceCo" service="NumericalSimulation" ` +
		`endpoint="http://hpc.example/tn" quality="UNI EN ISO 9000">` +
		`<capability name="simulation"/><capability name="cfd"/></serviceDescription>`
	d, err := decodeString(body)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.Publish(d); err != nil {
		t.Fatal(err)
	}
	within := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		b := uintptr(unsafe.Pointer(unsafe.StringData(body)))
		return s != "" && p >= b && p < b+uintptr(len(body))
	}
	if !within(d.Provider) {
		t.Fatal("test setup: the decoded provider is not a substring of the body")
	}
	var stored *Description
	for _, s := range r.All() {
		stored = s
	}
	if stored == nil || stored.Provider != "HPCServiceCo" || len(stored.Capabilities) != 2 {
		t.Fatalf("stored description %+v", stored)
	}
	for _, s := range append([]string{stored.Provider, stored.Service, stored.Endpoint, stored.Quality}, stored.Capabilities...) {
		if within(s) {
			t.Errorf("stored %q pins the request body", s)
		}
	}
}
