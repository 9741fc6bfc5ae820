// Package stats collects experiment metrics and renders them as aligned
// text tables, the form in which benchmark harnesses report the paper's
// figures.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Counters is a named-counter set. A set belongs to one simulation (the
// fabric's), which runs on one goroutine, so it takes no lock. Hot names are
// pre-registered with Slot, whose cell the call site keeps and adds to
// without looking the name up.
type Counters struct {
	slots map[string]*Slot
}

// Slot is one named counter's cell. Obtain one with Counters.Slot and keep it.
type Slot struct {
	v int64
	// touched records a write since creation or Reset: a counter appears in
	// Snapshot only once something has written it, so pre-registering a name
	// that never fires does not change the snapshot.
	touched bool
}

// Add increments the slot by delta.
func (s *Slot) Add(delta int64) { s.v, s.touched = s.v+delta, true }

// Inc increments the slot by one.
func (s *Slot) Inc() { s.Add(1) }

// Load returns the slot's current value.
func (s *Slot) Load() int64 { return s.v }

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{slots: make(map[string]*Slot)} }

// Slot returns name's cell, registering it on first use; the same slot comes
// back on every call.
func (c *Counters) Slot(name string) *Slot {
	s := c.slots[name]
	if s == nil {
		s = &Slot{}
		c.slots[name] = s
	}
	return s
}

// Add increments the named counter by delta.
func (c *Counters) Add(name string, delta int64) { c.Slot(name).Add(delta) }

// Inc increments the named counter by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Get returns the current value of the named counter.
func (c *Counters) Get(name string) int64 {
	if s := c.slots[name]; s != nil {
		return s.v
	}
	return 0
}

// Reset zeroes every counter. Slots stay registered (call sites hold
// pointers to them) but read as absent until written again.
func (c *Counters) Reset() {
	for _, s := range c.slots {
		*s = Slot{}
	}
}

// Snapshot returns the counters written so far, sorted by name.
func (c *Counters) Snapshot() []CounterValue {
	out := make([]CounterValue, 0, len(c.slots))
	for k, s := range c.slots {
		if s.touched {
			out = append(out, CounterValue{Name: k, Value: s.v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CounterValue is one named counter reading.
type CounterValue struct {
	Name  string
	Value int64
}

// Table is a simple text table builder used for experiment reports.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	numeric []bool // column alignment
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; cells are formatted with %v, and float64 values are
// rendered with one decimal place.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.header, " | ") + " |\n")
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range t.rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}

// MBps converts (bytes, seconds) to megabytes per second (1 MB = 10^6 bytes,
// matching the paper's units).
func MBps(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / seconds
}
