// Package metrics is Stabilizer's instrumentation substrate: a stdlib-only,
// allocation-free-on-hot-path metrics library. It offers atomic Counter and
// Gauge primitives, a fixed-bucket log-scale Histogram (suited to latencies
// in nanoseconds and sizes in bytes), and a Registry of named families with
// optional labels. Exposition (Prometheus text format, JSON, HTTP) lives in
// expose.go; the in-process SLO burn-rate monitor in slo.go.
//
// Hot-path rule: resolve labeled children once (Vec.With) and keep the
// returned pointer; Inc/Add/Set/Observe on a resolved child is a single
// atomic operation with no allocation and no map lookup.
//
// # Registry groups
//
// A Registry value is a view over a shared store of families. Group derives
// a new view that injects constant base labels into every family created or
// resolved through it:
//
//	root := metrics.NewRegistry()
//	n3 := root.Group("node", "3")
//	n3.Counter("stabilizer_core_sends_total", "...").Inc()
//	// root now exposes stabilizer_core_sends_total{node="3"} 1
//
// Groups are how one process hosting many Stabilizer nodes shares a single
// registry: each node instruments through its own node-labeled group, and
// one /metrics scrape sees every node. All views over the same root expose
// the same families; a family's label schema is the group's base labels
// followed by the caller's labels, and re-registering a name with a
// different schema panics (it is a programming error). The family store and
// each family's children sit behind one RWMutex each; resolved children are
// plain atomics, so the locks are met only on resolution and exposition.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; negative deltas are ignored to preserve
// monotonicity.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// MetricType discriminates family kinds.
type MetricType uint8

// Family kinds.
const (
	TypeCounter MetricType = iota + 1
	TypeGauge
	TypeGaugeFunc
	TypeHistogram
)

// String returns the Prometheus TYPE keyword for t.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge, TypeGaugeFunc:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// child is one metric instance inside a family (one per label-value tuple).
type child struct {
	labels []string // label values, parallel to family.labelNames
	c      *Counter
	g      *Gauge
	h      *Histogram
	// fn is atomic so GaugeFunc callbacks can be replaced on a live
	// registry (a restarted in-process node re-binds its closures) while
	// exposition reads them lock-free.
	fn atomic.Pointer[func() float64]
}

// value evaluates the child for exposition.
func (ch *child) value() float64 {
	switch {
	case ch.c != nil:
		return float64(ch.c.Value())
	case ch.g != nil:
		return float64(ch.g.Value())
	default:
		if fn := ch.fn.Load(); fn != nil {
			return (*fn)()
		}
		return 0
	}
}

// Family is a named group of metric instances sharing a type, help string
// and label schema. Resolving a child is a read-locked map lookup; hot paths
// resolve once and keep the child, so they never come here.
type Family struct {
	name       string
	help       string
	typ        MetricType
	labelNames []string
	hopts      HistogramOpts

	mu       sync.RWMutex
	children map[string]*child // keyed by labelKey
}

// Name returns the family name.
func (f *Family) Name() string { return f.name }

// Type returns the family's metric type.
func (f *Family) Type() MetricType { return f.typ }

// labelKey joins label values into a map key. 0xff cannot appear in UTF-8
// text, making the join unambiguous.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// get returns the child for values, creating it with mk on first use.
func (f *Family) get(values []string, mk func() *child) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: family %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	k := labelKey(values)
	f.mu.RLock()
	ch := f.children[k]
	f.mu.RUnlock()
	if ch != nil {
		return ch
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch = f.children[k]; ch != nil {
		return ch
	}
	ch = mk()
	ch.labels = append([]string(nil), values...)
	f.children[k] = ch
	return ch
}

// setFn installs fn as the callback of the child for values.
func (f *Family) setFn(values []string, fn func() float64) {
	ch := f.get(values, func() *child { return &child{} })
	ch.fn.Store(&fn)
}

// delete removes the child for values (no-op when absent).
func (f *Family) delete(values []string) {
	f.mu.Lock()
	delete(f.children, labelKey(values))
	f.mu.Unlock()
}

// withBase prepends a view's base label values to caller values.
func withBase(base, values []string) []string {
	if len(base) == 0 {
		return values
	}
	out := make([]string, 0, len(base)+len(values))
	out = append(out, base...)
	return append(out, values...)
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	f    *Family
	base []string
}

// With returns the counter for the given label values, creating it on first
// use. Hot paths should call With once and retain the result.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(withBase(v.base, values), func() *child { return &child{c: &Counter{}} }).c
}

// Delete drops the child for the given label values.
func (v *CounterVec) Delete(values ...string) { v.f.delete(withBase(v.base, values)) }

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct {
	f    *Family
	base []string
}

// With returns the gauge for the given label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(withBase(v.base, values), func() *child { return &child{g: &Gauge{}} }).g
}

// Delete drops the child for the given label values.
func (v *GaugeVec) Delete(values ...string) { v.f.delete(withBase(v.base, values)) }

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct {
	f    *Family
	base []string
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.get(withBase(v.base, values), func() *child { return &child{h: newHistogram(f.hopts)} }).h
}

// Delete drops the child for the given label values.
func (v *HistogramVec) Delete(values ...string) { v.f.delete(withBase(v.base, values)) }

// GaugeFuncVec is a family of callback gauges distinguished by label values.
type GaugeFuncVec struct {
	f    *Family
	base []string
}

// Set installs fn as the callback for the given label values, replacing any
// previous callback for the same tuple. Safe on a live registry.
func (v *GaugeFuncVec) Set(fn func() float64, values ...string) {
	v.f.setFn(withBase(v.base, values), fn)
}

// Delete drops the child for the given label values.
func (v *GaugeFuncVec) Delete(values ...string) { v.f.delete(withBase(v.base, values)) }

// CounterFuncVec is a family of callback counters distinguished by label
// values: the counter-typed twin of GaugeFuncVec, for totals derived at
// exposition time from counters kept elsewhere (a zone rollup is the sum of
// its peers' counters). The callback must be monotone for the family to read
// as a counter.
type CounterFuncVec struct {
	f    *Family
	base []string
}

// Set installs fn as the callback for the given label values, replacing any
// previous callback for the same tuple. Safe on a live registry.
func (v *CounterFuncVec) Set(fn func() float64, values ...string) {
	v.f.setFn(withBase(v.base, values), fn)
}

// registryRoot is the store shared by every view derived from one
// NewRegistry call.
type registryRoot struct {
	mu   sync.RWMutex
	fams map[string]*Family
}

// Registry is a view over a shared store of metric families. The view
// returned by NewRegistry has no base labels; Group derives views that
// inject constant labels (e.g. node identity) into every family they touch.
// Lookups are get-or-create: fetching an existing family with a compatible
// schema returns it, letting independent components share families; an
// incompatible re-registration panics (it is a programming error).
type Registry struct {
	root       *registryRoot
	baseNames  []string
	baseValues []string
}

// NewRegistry returns an empty registry (a root view with no base labels).
func NewRegistry() *Registry {
	return &Registry{root: &registryRoot{fams: make(map[string]*Family)}}
}

// Group returns a view of r whose families all carry the given constant
// label pairs ("name", "value", ...) in addition to r's own base labels.
// Families created through the group expose the base labels first; every
// Vec resolved through it injects the base values automatically. Views are
// cheap handles — derive one per in-process node and share the root.
func (r *Registry) Group(pairs ...string) *Registry {
	if len(pairs)%2 != 0 {
		panic("metrics: Group wants name/value pairs")
	}
	names := append([]string(nil), r.baseNames...)
	values := append([]string(nil), r.baseValues...)
	for i := 0; i < len(pairs); i += 2 {
		if !validName(pairs[i]) {
			panic(fmt.Sprintf("metrics: invalid group label name %q", pairs[i]))
		}
		names = append(names, pairs[i])
		values = append(values, pairs[i+1])
	}
	return &Registry{root: r.root, baseNames: names, baseValues: values}
}

// NodeGroup is the conventional per-node group: it tags every family with a
// node label carrying id (a 1-based WAN node index rendered in decimal).
func (r *Registry) NodeGroup(id string) *Registry { return r.Group("node", id) }

// family gets or creates a family, validating schema compatibility. The
// family's label schema is the view's base labels followed by labels.
func (r *Registry) family(name, help string, typ MetricType, labels []string, hopts HistogramOpts) *Family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid family name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q in family %q", l, name))
		}
	}
	full := withBase(r.baseNames, labels)
	root := r.root
	root.mu.RLock()
	f := root.fams[name]
	root.mu.RUnlock()
	if f == nil {
		root.mu.Lock()
		if f = root.fams[name]; f == nil {
			f = &Family{
				name:       name,
				help:       help,
				typ:        typ,
				labelNames: append([]string(nil), full...),
				hopts:      hopts.normalized(),
				children:   make(map[string]*child),
			}
			root.fams[name] = f
		}
		root.mu.Unlock()
	}
	if f.typ != typ || len(f.labelNames) != len(full) {
		panic(fmt.Sprintf("metrics: family %q re-registered with a different schema", name))
	}
	for i := range full {
		if f.labelNames[i] != full[i] {
			panic(fmt.Sprintf("metrics: family %q re-registered with different labels", name))
		}
	}
	return f
}

// Counter returns the counter named name carrying only the view's base
// labels.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec returns the labeled counter family named name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, TypeCounter, labels, HistogramOpts{}), base: r.baseValues}
}

// Gauge returns the gauge named name carrying only the view's base labels.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec returns the labeled gauge family named name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, TypeGauge, labels, HistogramOpts{}), base: r.baseValues}
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time (for cheap reads of externally owned state, e.g. buffer sizes).
// Re-registering the same name under the same view replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, TypeGaugeFunc, nil, HistogramOpts{})
	f.setFn(r.baseValues, fn)
}

// GaugeFuncVec returns the labeled callback-gauge family named name. Each
// child's value is computed at exposition time, like GaugeFunc, but carries
// label values — used for topology rollups (az/region tags) over externally
// owned state.
func (r *Registry) GaugeFuncVec(name, help string, labels ...string) *GaugeFuncVec {
	return &GaugeFuncVec{f: r.family(name, help, TypeGaugeFunc, labels, HistogramOpts{}), base: r.baseValues}
}

// CounterFuncVec returns the labeled callback-counter family named name:
// exposed as a counter, each child's value computed at exposition time. It
// shares TypeCounter with CounterVec, so one name must be registered as one
// or the other.
func (r *Registry) CounterFuncVec(name, help string, labels ...string) *CounterFuncVec {
	return &CounterFuncVec{f: r.family(name, help, TypeCounter, labels, HistogramOpts{}), base: r.baseValues}
}

// Histogram returns the histogram named name carrying only the view's base
// labels.
func (r *Registry) Histogram(name, help string, opts HistogramOpts) *Histogram {
	return r.HistogramVec(name, help, opts).With()
}

// HistogramVec returns the labeled histogram family named name.
func (r *Registry) HistogramVec(name, help string, opts HistogramOpts, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, TypeHistogram, labels, opts), base: r.baseValues}
}

// families returns the registered families sorted by name. Every view over
// the same root sees the same set.
func (r *Registry) families() []*Family {
	root := r.root
	root.mu.RLock()
	out := make([]*Family, 0, len(root.fams))
	for _, f := range root.fams {
		out = append(out, f)
	}
	root.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// validName reports whether s is a legal Prometheus metric or label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
