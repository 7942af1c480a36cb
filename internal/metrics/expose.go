package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// --- structured snapshot (shared by JSON exposition and tests) ---

// MetricSnapshot is one metric instance inside a FamilySnapshot.
type MetricSnapshot struct {
	// Labels maps label names to values; empty for unlabeled metrics.
	Labels map[string]string `json:"labels,omitempty"`
	// Value holds counter and gauge readings.
	Value float64 `json:"value"`
	// Histogram holds histogram readings (nil otherwise).
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
	// P50/P99 are estimated quantiles, only set for histograms.
	P50 float64 `json:"p50,omitempty"`
	P99 float64 `json:"p99,omitempty"`
}

// FamilySnapshot is a point-in-time copy of one family.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Type    string           `json:"type"`
	Help    string           `json:"help,omitempty"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot copies every family in the registry, sorted by name.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.families()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.snapshot())
	}
	return out
}

// snapshot copies the family's children as they read now.
func (f *Family) snapshot() FamilySnapshot {
	fs := FamilySnapshot{Name: f.name, Type: f.typ.String(), Help: f.help}
	for _, ch := range f.sortedChildren() {
		m := MetricSnapshot{}
		if len(f.labelNames) > 0 {
			m.Labels = make(map[string]string, len(f.labelNames))
			for i, ln := range f.labelNames {
				m.Labels[ln] = ch.labels[i]
			}
		}
		if ch.h != nil {
			snap := ch.h.Snapshot()
			m.Histogram = &snap
			m.P50 = ch.h.Quantile(0.50)
			m.P99 = ch.h.Quantile(0.99)
		} else {
			m.Value = ch.value()
		}
		fs.Metrics = append(fs.Metrics, m)
	}
	return fs
}

// Find returns the snapshot of the named family alone, or nil if absent.
func (r *Registry) Find(name string) *FamilySnapshot {
	r.root.mu.RLock()
	f := r.root.fams[name]
	r.root.mu.RUnlock()
	if f == nil {
		return nil
	}
	fs := f.snapshot()
	return &fs
}

// sortedChildren returns the family's children ordered by label values.
func (f *Family) sortedChildren() []*child {
	type kv struct {
		k  string
		ch *child
	}
	f.mu.RLock()
	all := make([]kv, 0, len(f.children))
	for k, ch := range f.children {
		all = append(all, kv{k, ch})
	}
	f.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	out := make([]*child, len(all))
	for i := range all {
		out[i] = all[i].ch
	}
	return out
}

// --- Prometheus text exposition ---

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		children := f.sortedChildren()
		if len(children) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, ch := range children {
			if ch.h != nil {
				writeHistogram(bw, f.name, f.labelNames, ch.labels, ch.h)
			} else {
				writeSample(bw, f.name, f.labelNames, ch.labels, "", "", ch.value())
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram child: cumulative buckets, sum, count.
func writeHistogram(w io.Writer, name string, labelNames, labelValues []string, h *Histogram) {
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		cum += n
		if n == 0 && i != len(h.counts)-1 {
			continue // skip interior empty buckets; +Inf always emitted
		}
		le := formatLe(h.upperBound(i))
		writeSample(w, name+"_bucket", labelNames, labelValues, "le", le, float64(cum))
	}
	writeSample(w, name+"_sum", labelNames, labelValues, "", "", float64(h.sum.Load())*h.opts.Unit)
	writeSample(w, name+"_count", labelNames, labelValues, "", "", float64(h.count.Load()))
}

// writeSample renders one sample line, appending an optional extra label
// (used for histogram le).
func writeSample(w io.Writer, name string, labelNames, labelValues []string, extraName, extraValue string, v float64) {
	io.WriteString(w, name)
	if len(labelNames) > 0 || extraName != "" {
		io.WriteString(w, "{")
		first := true
		for i, ln := range labelNames {
			if !first {
				io.WriteString(w, ",")
			}
			first = false
			fmt.Fprintf(w, "%s=%q", ln, labelValues[i])
		}
		if extraName != "" {
			if !first {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, "%s=%q", extraName, extraValue)
		}
		io.WriteString(w, "}")
	}
	io.WriteString(w, " ")
	io.WriteString(w, formatValue(v))
	io.WriteString(w, "\n")
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// --- HTTP exposition ---

// Handler serves the registry: Prometheus text format by default, JSON with
// ?format=json or an Accept header preferring application/json.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(struct {
				Families []FamilySnapshot `json:"families"`
			}{r.Snapshot()})
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// ServeOption customizes the mux built by Serve.
type ServeOption func(*serveConfig)

type serveConfig struct {
	pprof bool
}

// WithPprof mounts net/http/pprof's handlers under /debug/pprof/ on the
// metrics mux, so live runs can correlate CPU/alloc profiles with metric
// spikes without opening a second port. Off by default: profiles expose
// internals and profiling costs CPU, so deployments opt in per endpoint.
func WithPprof() ServeOption {
	return func(c *serveConfig) { c.pprof = true }
}

// Serve binds addr and serves reg at /metrics in the background, plus any
// extra handlers (path → handler). It returns once the listener is bound;
// callers Close the returned server on shutdown.
func Serve(addr string, reg *Registry, extra map[string]http.Handler, opts ...ServeOption) (*http.Server, error) {
	var cfg serveConfig
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	for path, h := range extra {
		mux.Handle(path, h)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux, Addr: ln.Addr().String()}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}
