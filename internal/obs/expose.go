package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type of the Prometheus text
// exposition format version this package writes.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteTo renders every family in the Prometheus text exposition
// format (version 0.0.4): families in name order, one # HELP and
// # TYPE header each, series in label-value order, histograms as
// cumulative _bucket/_sum/_count. The output is deterministic for a
// given registry state, so tests can golden it.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	for _, f := range r.sortedFamilies() {
		children := f.sortedChildren()
		if len(children) == 0 {
			continue
		}
		fmt.Fprintf(cw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.kind)
		for _, ch := range children {
			f.samples(ch, func(name, le, text string, _ float64) {
				extra := ""
				if le != "" {
					extra = "le"
				}
				writeSample(cw, name, f.labels, ch.values, extra, le, text)
			})
		}
		if cw.err != nil {
			return cw.n, cw.err
		}
	}
	if err := cw.w.(*bufio.Writer).Flush(); err != nil && cw.err == nil {
		cw.err = err
	}
	return cw.n, cw.err
}

// Handler returns an http.Handler serving the registry at scrape time
// — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		r.WriteTo(w)
	})
}

// samples is the one walk of a child's exposed samples, WriteTo's and
// Snapshot's: it calls emit for each in exposition order with its name,
// its histogram "le" label ("" for none), its value as exposition text
// and as a float. Histograms expand into cumulative name_bucket
// samples, name_sum and name_count; counts render as integers.
func (f *Family) samples(ch *child, emit func(name, le, text string, v float64)) {
	count := func(name, le string, n int64) { emit(name, le, strconv.FormatInt(n, 10), float64(n)) }
	float := func(name string, v float64) { emit(name, "", formatFloat(v), v) }
	switch {
	case f.kind == KindCounter && ch.fn != nil:
		count(f.name, "", int64(ch.fn()))
	case ch.fn != nil:
		float(f.name, ch.fn())
	case f.kind == KindHistogram:
		cum, n, sum := ch.h.snapshot()
		for i, bound := range f.bounds {
			count(f.name+"_bucket", formatFloat(bound), cum[i])
		}
		count(f.name+"_bucket", "+Inf", cum[len(cum)-1])
		float(f.name+"_sum", sum)
		count(f.name+"_count", "", n)
	case f.kind == KindCounter:
		count(f.name, "", ch.c.Value())
	default:
		float(f.name, ch.g.Value())
	}
}

// writeSample renders one exposition line; extraName/extraValue append
// a synthetic label (the histogram "le").
func writeSample(w io.Writer, name string, labels, values []string, extraName, extraValue, rendered string) {
	if len(labels) == 0 && extraName == "" {
		fmt.Fprintf(w, "%s %s\n", name, rendered)
		return
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	fmt.Fprintf(w, "%s %s\n", b.String(), rendered)
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation. strconv already spells the specials as
// +Inf, -Inf and NaN, matching the exposition grammar.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, quote, newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// countingWriter tracks bytes written and the first error.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
