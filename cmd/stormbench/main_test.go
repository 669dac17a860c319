package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// recordCopy copies the committed results record into a temp dir.
func recordCopy(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_results.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func history(t *testing.T, raw json.RawMessage) []map[string]json.RawMessage {
	t.Helper()
	var h []map[string]json.RawMessage
	if raw != nil {
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatalf("section is not a history of entries: %v", err)
		}
	}
	return h
}

// sections reads the record at path as raw top-level sections.
func sections(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := make(map[string]json.RawMessage)
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRunAppendsOneDatedEntry(t *testing.T) {
	const name = "chaos"
	path := recordCopy(t)
	before := sections(t, path)
	if err := run(name, config{}, path); err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	after := sections(t, path)

	// Every other section is carried forward byte for byte.
	for key, val := range before {
		if key != name && !bytes.Equal(after[key], val) {
			t.Errorf("section %q not carried forward byte for byte", key)
		}
	}
	for key := range after {
		if _, ok := before[key]; !ok && key != name {
			t.Errorf("run added section %q", key)
		}
	}

	prev, cur := before[name], after[name]
	old, hist := history(t, prev), history(t, cur)
	if len(hist) != len(old)+1 {
		t.Fatalf("%s history has %d entries, want %d", name, len(hist), len(old)+1)
	}
	last := hist[len(hist)-1]
	var when string
	if err := json.Unmarshal(last["when"], &when); err != nil {
		t.Fatalf("new entry has no when: %v", err)
	}
	if ts, err := time.Parse(time.RFC3339, when); err != nil || time.Since(ts) > time.Hour {
		t.Errorf("new entry dated %q (%v), want the run's time", when, err)
	}
	if _, ok := last["rows"]; !ok {
		t.Errorf("new entry has no rows: %v", last)
	}
}

func TestUnknownSuiteIsAnError(t *testing.T) {
	path := recordCopy(t)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := run("chaos,nosuch", config{}, path); err == nil {
		t.Fatal("unknown suite name: want an error")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Error("a rejected -suite list rewrote the results record")
	}
}

func TestEntryShapes(t *testing.T) {
	cases := []struct {
		fioOps int
		rec    any
		want   string
	}{
		{0, []int{1, 2}, `{"when":"T","rows":[1,2]}`},
		{150, map[string]int{"a": 1}, `{"when":"T","fio_ops":150,"a":1}`},
		{0, struct{}{}, `{"when":"T"}`},
	}
	for _, c := range cases {
		got, err := entry("T", c.fioOps, c.rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("entry(%v, %v) = %s, want %s", c.fioOps, c.rec, got, c.want)
		}
	}
}

func TestFailedGateRecordsAndStops(t *testing.T) {
	saved := suites
	t.Cleanup(func() { suites = saved })
	ran := 0
	suites = []suite{
		{"gated", "gated", false, func(config) (any, error) {
			ran++
			return []int{1}, errors.New("gate failed")
		}},
		{"after", "after", false, func(config) (any, error) {
			ran++
			return []int{2}, nil
		}},
	}
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := run("gated,after", config{}, path); err == nil || err.Error() != "gate failed" {
		t.Fatalf("run = %v, want the gate's error", err)
	}
	if ran != 1 {
		t.Errorf("%d suites ran, want the run to stop at the failed gate", ran)
	}
	rec := sections(t, path)
	if len(rec) != 1 || len(history(t, rec["gated"])) != 1 {
		t.Fatalf("record = %s, want the failing suite's one entry", rec)
	}
}
