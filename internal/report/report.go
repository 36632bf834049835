// Package report renders result tables in three formats: aligned text,
// CSV and JSON rows. It is the table layer under campaign aggregates:
// mflushsweep's exports and mflushd's result endpoint.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(columns ...string) *Table {
	return &Table{header: columns}
}

// Row appends one row; values are formatted with %v, floats with three
// decimals.
func (t *Table) Row(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// RowF appends a row of pre-formatted strings.
func (t *Table) RowF(cells ...string) *Table {
	t.rows = append(t.rows, cells)
	return t
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	tw := tabwriter.NewWriter(cw, 2, 4, 2, ' ', 0)
	if len(t.header) > 0 {
		fmt.Fprintln(tw, strings.Join(t.header, "\t"))
	}
	for _, row := range t.rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// WriteCSV renders the table as RFC 4180 CSV: the header (when present)
// then one record per row, with the same cell formatting as WriteTo.
// Campaign exports go through this, so the byte output must stay stable.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.header) > 0 {
		if err := cw.Write(t.header); err != nil {
			return err
		}
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON renders the table as a JSON array of objects, one per row,
// keyed by the column headers in column order (not Go's sorted-map
// order), with the same cell formatting as WriteTo — the generic wire
// encoding mflushd serves to clients that want rows without learning a
// result-specific schema. Rows longer than the header are an error; a
// short row simply omits its missing columns.
func (t *Table) WriteJSON(w io.Writer) error {
	if len(t.header) == 0 {
		return fmt.Errorf("report: JSON table needs column headers")
	}
	keys := make([][]byte, len(t.header))
	for i, h := range t.header {
		k, err := json.Marshal(h)
		if err != nil {
			return err
		}
		keys[i] = k
	}
	var b []byte
	b = append(b, '[')
	for r, row := range t.rows {
		if len(row) > len(t.header) {
			return fmt.Errorf("report: row %d has %d cells for %d columns", r, len(row), len(t.header))
		}
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n  {"...)
		for i, cell := range row {
			if i > 0 {
				b = append(b, ',')
			}
			v, err := json.Marshal(cell)
			if err != nil {
				return err
			}
			b = append(b, keys[i]...)
			b = append(b, ':')
			b = append(b, v...)
		}
		b = append(b, '}')
	}
	b = append(b, "\n]\n"...)
	_, err := w.Write(b)
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_, _ = t.WriteTo(&b)
	return b.String()
}

type countingWriter struct {
	w io.Writer
	n int64
}

// Write forwards to the wrapped writer while counting bytes.
func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
