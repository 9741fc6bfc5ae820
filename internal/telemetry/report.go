package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// SeriesData is one exported series: values aligned to the report's sample
// clock starting at index Start (a series registered mid-run has no samples
// before that).
type SeriesData struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	Start  int       `json:"start"`
	Values []float64 `json:"values"`
}

// Report is an immutable snapshot of an engine's series plus any detector
// findings, ready for export. Building one after the run keeps the engine's
// sample path free of formatting work.
type Report struct {
	IntervalUS float64      `json:"interval_us"`
	TimesS     []float64    `json:"times_s"`
	Series     []SeriesData `json:"series"`
	Findings   []Finding    `json:"findings"`
}

// Report snapshots the engine's retained samples into an exportable form.
// Series appear in registration order; a nil engine yields an empty report.
func (e *Engine) Report() *Report {
	r := &Report{}
	if e == nil || e.count == 0 {
		return r
	}
	r.IntervalUS = float64(e.interval) / 1e3
	first := 0
	if e.count > e.capacity {
		first = e.count - e.capacity
	}
	for j := first; j < e.count; j++ {
		r.TimesS = append(r.TimesS, float64(e.times[j%e.capacity])/1e9)
	}
	for _, s := range e.series {
		sd := SeriesData{Name: s.Name, Kind: s.Kind.String()}
		lo := first
		if s.start > lo {
			lo = s.start
		}
		sd.Start = lo - first
		for j := lo; j < e.count; j++ {
			sd.Values = append(sd.Values, s.vals[(j-s.start)%e.capacity])
		}
		r.Series = append(r.Series, sd)
	}
	return r
}

// Get returns the named series, or nil.
func (r *Report) Get(name string) *SeriesData {
	if r == nil {
		return nil
	}
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}

// at returns the series value at report sample index j, and whether the
// series had a sample there.
func (sd *SeriesData) at(j int) (float64, bool) {
	if sd == nil || j < sd.Start || j-sd.Start >= len(sd.Values) {
		return 0, false
	}
	return sd.Values[j-sd.Start], true
}

// WriteCSV writes the report as one row per sample: a time_s column then
// one column per series (registration order). Cells before a series'
// registration are empty. Output is byte-stable for a deterministic run.
func (r *Report) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("time_s")
	for _, s := range r.Series {
		b.WriteByte(',')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	for j, t := range r.TimesS {
		fmt.Fprintf(&b, "%.9f", t)
		for i := range r.Series {
			b.WriteByte(',')
			if v, ok := r.Series[i].at(j); ok {
				fmt.Fprintf(&b, "%.6g", v)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON writes the full report (series and findings) as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path: the full JSON report when path ends
// in ".json", the CSV series otherwise.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = r.WriteJSON(f)
	} else {
		err = r.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sparkRunes are the eight vertical-bar glyphs a sparkline is built from.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkWidth is the fixed dashboard sparkline width; longer series are
// bucket-max downsampled into it.
const sparkWidth = 32

// sparkline renders vals as a fixed-width bar string normalized to the
// series' own [min, max] range.
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	width := sparkWidth
	if len(vals) < width {
		width = len(vals)
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for c := 0; c < width; c++ {
		// Bucket [start, end) of samples feeding column c; keep the max so
		// short spikes survive downsampling.
		start := c * len(vals) / width
		end := (c + 1) * len(vals) / width
		if end <= start {
			end = start + 1
		}
		v := vals[start]
		for _, x := range vals[start:end] {
			if x > v {
				v = x
			}
		}
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// seriesStats returns (min, mean, max, last) of vals.
func seriesStats(vals []float64) (lo, mean, hi, last float64) {
	if len(vals) == 0 {
		return
	}
	lo, hi = vals[0], vals[0]
	var sum float64
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		sum += v
	}
	return lo, sum / float64(len(vals)), hi, vals[len(vals)-1]
}

// Dashboard renders an aligned text view: one sparkline row per series
// (all-zero series are elided) followed by the findings. Deterministic for
// a deterministic run.
func (r *Report) Dashboard() string {
	var b strings.Builder
	if r == nil || len(r.TimesS) == 0 {
		return "telemetry: no samples\n"
	}
	span := r.TimesS[len(r.TimesS)-1] - r.TimesS[0]
	fmt.Fprintf(&b, "telemetry: %d samples @ %.0fµs over %.3fms\n",
		len(r.TimesS), r.IntervalUS, span*1e3)
	nameW := 0
	for _, s := range r.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for _, s := range r.Series {
		lo, mean, hi, last := seriesStats(s.Values)
		if lo == 0 && hi == 0 {
			continue // never moved; keep the dashboard readable
		}
		spark := sparkline(s.Values)
		// Pad by rune count: the bar glyphs are multi-byte, so %-*s would
		// misalign the stat columns.
		pad := strings.Repeat(" ", sparkWidth-len([]rune(spark)))
		fmt.Fprintf(&b, "  %-*s %s%s  min %.6g  mean %.6g  max %.6g  last %.6g\n",
			nameW, s.Name, spark, pad, lo, mean, hi, last)
	}
	if len(r.Findings) > 0 {
		b.WriteString("findings:\n")
		for _, f := range r.Findings {
			b.WriteString("  " + f.String() + "\n")
		}
	}
	return b.String()
}
