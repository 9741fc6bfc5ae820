package stats

import (
	"strings"
	"testing"
)

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Inc("a")
	c.Add("a", 4)
	c.Add("b", -2)
	if c.Get("a") != 5 || c.Get("b") != -2 || c.Get("missing") != 0 {
		t.Fatalf("a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	snap := c.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Fatalf("snapshot = %+v", snap)
	}
	c.Reset()
	if c.Get("a") != 0 {
		t.Fatal("reset failed")
	}
}

// TestCountersConcurrent: a set takes no lock, because each belongs to one
// simulation on one goroutine; simulations run in parallel, each on its own
// set, and share nothing (the race detector checks it).
func TestCountersConcurrent(t *testing.T) {
	done := make(chan *Counters)
	for i := 0; i < 8; i++ {
		go func() {
			c := NewCounters()
			hot := c.Slot("hot")
			for j := 0; j < 1000; j++ {
				c.Inc("n")
				hot.Inc()
			}
			done <- c
		}()
	}
	for i := 0; i < 8; i++ {
		if c := <-done; c.Get("n") != 1000 || c.Get("hot") != 1000 {
			t.Fatalf("n = %d, hot = %d, want 1000 each", c.Get("n"), c.Get("hot"))
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "col1", "column2")
	tb.AddRow(1, 2.5)
	tb.AddRow("long-value", 100.0)
	s := tb.String()
	if !strings.Contains(s, "Title") || !strings.Contains(s, "col1") {
		t.Fatalf("render:\n%s", s)
	}
	if !strings.Contains(s, "2.5") || !strings.Contains(s, "100.0") {
		t.Fatalf("floats not formatted:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow(1, 2)
	md := tb.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Fatalf("markdown:\n%s", md)
	}
}

func TestMBps(t *testing.T) {
	if v := MBps(2e6, 2); v != 1 {
		t.Fatalf("MBps = %v", v)
	}
	if v := MBps(100, 0); v != 0 {
		t.Fatalf("zero-time MBps = %v", v)
	}
}
