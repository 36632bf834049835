package report

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tbl := NewTable("name", "ipc", "note")
	tbl.Row("2W1", 1.5, "ok")
	tbl.Row("longer-name", 10.25, "x")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Columns align: "ipc" starts at the same offset in every line.
	col := strings.Index(lines[0], "ipc")
	if col < 0 {
		t.Fatal("header missing")
	}
	if !strings.HasPrefix(lines[1][col:], "1.500") {
		t.Fatalf("misaligned row: %q", lines[1])
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestTableRowF(t *testing.T) {
	tbl := NewTable("a", "b")
	tbl.RowF("x", "+5%")
	if !strings.Contains(tbl.String(), "+5%") {
		t.Fatal("preformatted cell lost")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := NewTable("name", "ipc", "note")
	tbl.Row("2W1", 1.5, "plain")
	tbl.Row("8W3, tweaked", 0.25, `quote "me"`)
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "name,ipc,note\n" +
		"2W1,1.500,plain\n" +
		"\"8W3, tweaked\",0.250,\"quote \"\"me\"\"\"\n"
	if b.String() != want {
		t.Fatalf("CSV:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestTableWriteCSVNoHeader(t *testing.T) {
	tbl := &Table{}
	tbl.RowF("a", "b")
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "a,b\n" {
		t.Fatalf("CSV = %q", b.String())
	}
}

func TestEmptyTableRendering(t *testing.T) {
	if out := (&Table{}).String(); out != "" {
		t.Fatalf("zero table rendered %q", out)
	}
	hdr := NewTable("a", "bb")
	if out := hdr.String(); !strings.Contains(out, "a") || !strings.Contains(out, "bb") {
		t.Fatalf("header-only table lost its header: %q", out)
	}
	if hdr.Len() != 0 {
		t.Fatalf("header-only Len = %d", hdr.Len())
	}
	var b strings.Builder
	if err := hdr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "a,bb\n" {
		t.Fatalf("header-only CSV = %q", b.String())
	}
}

func TestTableWriteJSON(t *testing.T) {
	tb := NewTable("workload", "ipc")
	tb.Row("2W3", 1.234567)
	tb.Row("8W3", 0.5)
	var b strings.Builder
	if err := tb.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	want := "[\n" +
		"  {\"workload\":\"2W3\",\"ipc\":\"1.235\"},\n" +
		"  {\"workload\":\"8W3\",\"ipc\":\"0.500\"}\n" +
		"]\n"
	if b.String() != want {
		t.Fatalf("WriteJSON:\n%s\nwant:\n%s", b.String(), want)
	}
	var decoded []map[string]string
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(decoded) != 2 || decoded[1]["workload"] != "8W3" {
		t.Fatalf("decoded = %+v", decoded)
	}
}

func TestTableWriteJSONNeedsHeader(t *testing.T) {
	tb := &Table{}
	tb.Row("x")
	if err := tb.WriteJSON(io.Discard); err == nil {
		t.Fatal("headerless table encoded to JSON")
	}
}

func TestTableWriteJSONRejectsWideRow(t *testing.T) {
	tb := NewTable("only")
	tb.RowF("a", "b")
	if err := tb.WriteJSON(io.Discard); err == nil {
		t.Fatal("row wider than header encoded to JSON")
	}
}

func TestTableWriteJSONEmpty(t *testing.T) {
	tb := NewTable("a", "b")
	var b strings.Builder
	if err := tb.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "[\n]\n" {
		t.Fatalf("empty table = %q", b.String())
	}
}
