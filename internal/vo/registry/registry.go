// Package registry is the public resource repository of the preparation
// phase (paper §2): "SPs publish their resources' functionalities in a
// public repository. The resources' description provides detailed
// information about resources' capabilities, the resources' interaction
// means and other information like the resource quality. This
// information allows one to select a SP for inclusion in the VO."
//
// The VO Initiator queries it during formation to shortlist candidates
// whose capabilities match a role's requirements.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"trustvo/internal/xmldom"
)

// Description is one published service description.
type Description struct {
	// Provider is the service provider's name (unique key).
	Provider string
	// Service names the offered service.
	Service string
	// Capabilities the service offers, matched against role requirements.
	Capabilities []string
	// Endpoint is where the provider's TN/VO agent listens (URL).
	Endpoint string
	// Quality is the advertised quality level (free-form, e.g. an ISO
	// regulation identifier).
	Quality string
}

// Validate checks the description is publishable.
func (d *Description) Validate() error {
	if d.Provider == "" {
		return errors.New("registry: description without provider")
	}
	if d.Service == "" {
		return fmt.Errorf("registry: %s publishes a service without name", d.Provider)
	}
	return nil
}

// Encode writes the description, the one layout of the /registry/publish
// body and of each entry of the /registry/list and /registry/find
// replies:
//
//	<serviceDescription endpoint=… provider=… quality=… service=…>
//	  <capability name=…/>…
//	</serviceDescription>
//
// endpoint and quality are left out when empty.
func (d *Description) Encode(w *xmldom.Writer) {
	w.Start("serviceDescription")
	w.Attr("provider", d.Provider)
	w.Attr("service", d.Service)
	if d.Endpoint != "" {
		w.Attr("endpoint", d.Endpoint)
	}
	if d.Quality != "" {
		w.Attr("quality", d.Quality)
	}
	for _, c := range d.Capabilities {
		w.Start("capability")
		w.Attr("name", c)
		w.End()
	}
	w.End()
}

// DecodeDescription reads the <serviceDescription> whose start tag r has
// just read, to its end, and validates it: the one decoder of the layout
// Encode writes. Its strings are substrings of what r reads; Publish
// stores clones of them.
func DecodeDescription(r *xmldom.Reader) (*Description, error) {
	if r.Name() != "serviceDescription" {
		return nil, fmt.Errorf("registry: root element <%s>", r.Name())
	}
	d := &Description{
		Provider: r.AttrOr("provider", ""),
		Service:  r.AttrOr("service", ""),
		Endpoint: r.AttrOr("endpoint", ""),
		Quality:  r.AttrOr("quality", ""),
	}
	for depth := r.Depth(); r.Child(depth); {
		if r.Name() == "capability" {
			d.Capabilities = append(d.Capabilities, r.AttrOr("name", ""))
		}
	}
	return d, d.Validate()
}

// Registry is the public repository. Safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	desc map[string]*Description // by provider
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{desc: make(map[string]*Description)}
}

// Publish inserts or replaces a provider's description. It stores a
// copy whose strings are its own: a description decoded from a request
// holds substrings of the whole body (see package xmldom), which the
// registry would otherwise keep alive.
func (r *Registry) Publish(d *Description) error {
	if err := d.Validate(); err != nil {
		return err
	}
	cp := &Description{
		Provider: strings.Clone(d.Provider),
		Service:  strings.Clone(d.Service),
		Endpoint: strings.Clone(d.Endpoint),
		Quality:  strings.Clone(d.Quality),
	}
	for _, c := range d.Capabilities {
		cp.Capabilities = append(cp.Capabilities, strings.Clone(c))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.desc[cp.Provider] = cp
	return nil
}

// Withdraw removes a provider's description.
func (r *Registry) Withdraw(provider string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.desc[provider]; !ok {
		return false
	}
	delete(r.desc, provider)
	return true
}

// Lookup returns the description of one provider, or nil.
func (r *Registry) Lookup(provider string) *Description {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.desc[provider]
}

// All returns every description, sorted by provider.
func (r *Registry) All() []*Description {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Description, 0, len(r.desc))
	for _, d := range r.desc {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Provider < out[j].Provider })
	return out
}

// FindByCapabilities returns the providers offering every required
// capability (case-insensitive), sorted by provider name. An empty
// requirement matches everyone.
func (r *Registry) FindByCapabilities(required []string) []*Description {
	all := r.All()
	if len(required) == 0 {
		return all
	}
	var out []*Description
	for _, d := range all {
		if hasAll(d.Capabilities, required) {
			out = append(out, d)
		}
	}
	return out
}

func hasAll(have, want []string) bool {
	set := make(map[string]bool, len(have))
	for _, h := range have {
		set[strings.ToLower(h)] = true
	}
	for _, w := range want {
		if !set[strings.ToLower(w)] {
			return false
		}
	}
	return true
}
