package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4), hand-rolled per the
// stdlib-only constraint: counters and gauges as single samples,
// histograms as cumulative _bucket/_sum/_count families. Series are
// emitted in sorted order so scrapes are diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	cs, gs, hs := r.snapshot()

	var lastName string
	for _, c := range cs {
		if c.name != lastName {
			fmt.Fprintf(w, "# TYPE %s counter\n", c.name)
			lastName = c.name
		}
		fmt.Fprintf(w, "%s %d\n", c.key(), c.c.Value())
	}
	lastName = ""
	for _, g := range gs {
		if g.name != lastName {
			fmt.Fprintf(w, "# TYPE %s gauge\n", g.name)
			lastName = g.name
		}
		fmt.Fprintf(w, "%s %d\n", g.key(), g.g.Value())
	}
	lastName = ""
	for _, h := range hs {
		if h.name != lastName {
			fmt.Fprintf(w, "# TYPE %s histogram\n", h.name)
			lastName = h.name
		}
		snap := h.h.Snapshot()
		var cum int64
		for i, bound := range snap.Bounds {
			cum += snap.Counts[i]
			fmt.Fprintf(w, "%s %d\n",
				seriesWithLabel(h.name+"_bucket", h.labels, "le", formatFloat(bound)), cum)
		}
		if len(snap.Counts) > 0 {
			cum += snap.Counts[len(snap.Counts)-1]
		}
		fmt.Fprintf(w, "%s %d\n", seriesWithLabel(h.name+"_bucket", h.labels, "le", "+Inf"), cum)
		fmt.Fprintf(w, "%s %s\n", series{name: h.name + "_sum", labels: h.labels}.key(), formatFloat(snap.Sum))
		fmt.Fprintf(w, "%s %d\n", series{name: h.name + "_count", labels: h.labels}.key(), snap.Count)
	}
	return nil
}

// seriesWithLabel renders name{labels...,extraK="extraV"}.
func seriesWithLabel(name string, labels []string, extraK, extraV string) string {
	b := append([]byte(name), '{')
	b = appendLabels(b, labels)
	if len(labels) > 0 {
		b = append(b, ',')
	}
	b = appendLabel(b, extraK, extraV)
	return string(append(b, '}'))
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the exposition over HTTP (mount at GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
