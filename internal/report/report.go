// Package report renders experiment results as aligned ASCII tables and
// CSV — the output format of cmd/lia-bench and the examples. A Table is a
// titled grid; a Figure is a set of named series over a shared x-axis
// (what the paper draws as bar groups or lines).
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	// Title is printed above the grid.
	Title string
	// Headers label the columns.
	Headers []string
	// Rows holds the data cells.
	Rows [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded, long rows truncated to the
// header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the aligned ASCII grid.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// CSV renders the grid as comma-separated values (headers first).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(esc(c))
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Series is one named line/bar group of a figure.
type Series struct {
	// Name labels the series (e.g. "LIA", "FlexGen").
	Name string
	// Values align with the figure's X ticks; NaN marks missing points
	// (rendered as "OOM" per the paper's convention).
	Values []float64
}

// Figure is a set of series over shared x-axis ticks.
type Figure struct {
	// Title and axis labels.
	Title, XLabel, YLabel string
	// XTicks label the shared x positions.
	XTicks []string
	// Series holds the data.
	Series []Series
	// Unit formats values (e.g. "%.2f"); empty means "%.3g".
	Unit string
}

// NewFigure creates a figure.
func NewFigure(title, xlabel, ylabel string, xticks ...string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel, XTicks: xticks}
}

// Add appends a series; its length must match the tick count.
func (f *Figure) Add(name string, values ...float64) error {
	if len(values) != len(f.XTicks) {
		return fmt.Errorf("report: series %q has %d values for %d ticks", name, len(values), len(f.XTicks))
	}
	f.Series = append(f.Series, Series{Name: name, Values: values})
	return nil
}

// MustAdd is Add for programmatic construction.
func (f *Figure) MustAdd(name string, values ...float64) {
	if err := f.Add(name, values...); err != nil {
		panic(err)
	}
}

// format renders one value, using "OOM" for NaN.
func (f *Figure) format(v float64) string {
	if v != v {
		return "OOM"
	}
	unit := f.Unit
	if unit == "" {
		unit = "%.3g"
	}
	return fmt.Sprintf(unit, v)
}

// Table converts the figure into a Table (ticks down the rows, one column
// per series).
func (f *Figure) Table() *Table {
	headers := append([]string{f.XLabel}, make([]string, len(f.Series))...)
	for i, s := range f.Series {
		headers[i+1] = s.Name
	}
	t := NewTable(fmt.Sprintf("%s [%s]", f.Title, f.YLabel), headers...)
	for xi, tick := range f.XTicks {
		row := make([]string, len(f.Series)+1)
		row[0] = tick
		for si, s := range f.Series {
			row[si+1] = f.format(s.Values[xi])
		}
		t.AddRow(row...)
	}
	return t
}

// String renders the figure through its table form.
func (f *Figure) String() string { return f.Table().String() }

// CSV renders the figure's table as CSV.
func (f *Figure) CSV() string { return f.Table().CSV() }

// Ratio returns series a's value divided by series b's at tick index i,
// or NaN when either is missing. It is a test oracle: the report and
// experiments tests check figure ratios with it, and no program calls it.
func (f *Figure) Ratio(a, b string, i int) float64 {
	av, bv := math.NaN(), math.NaN()
	for _, s := range f.Series {
		if s.Name == a && i < len(s.Values) {
			av = s.Values[i]
		}
		if s.Name == b && i < len(s.Values) {
			bv = s.Values[i]
		}
	}
	if av != av || bv != bv || bv == 0 {
		return math.NaN()
	}
	return av / bv
}

// GanttRow is one bar of an ASCII Gantt chart.
type GanttRow struct {
	// Label names the bar (task ID).
	Label string
	// Lane groups bars (resource name).
	Lane string
	// Start and Finish bound the bar in seconds.
	Start, Finish float64
}

// Gantt renders rows as an ASCII timeline grouped by lane, `width`
// characters across. Zero-length bars render as a single tick.
func Gantt(title string, rows []GanttRow, width int) string {
	if width < 20 {
		width = 20
	}
	var maxT float64
	for _, r := range rows {
		if r.Finish > maxT {
			maxT = r.Finish
		}
	}
	if maxT <= 0 {
		maxT = 1
	}
	lanes := []string{}
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Lane] {
			seen[r.Lane] = true
			lanes = append(lanes, r.Lane)
		}
	}
	labelW := 0
	for _, r := range rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (0 .. %.4gs)\n", title, maxT)
	for _, lane := range lanes {
		fmt.Fprintf(&b, "[%s]\n", lane)
		for _, r := range rows {
			if r.Lane != lane {
				continue
			}
			start := int(r.Start / maxT * float64(width))
			end := int(r.Finish / maxT * float64(width))
			if end <= start {
				end = start + 1
			}
			if end > width {
				end = width
			}
			fmt.Fprintf(&b, "  %-*s |%s%s%s|\n", labelW, r.Label,
				strings.Repeat(" ", start),
				strings.Repeat("#", end-start),
				strings.Repeat(" ", width-end))
		}
	}
	return b.String()
}

// Markdown renders the grid as a GitHub-flavored markdown table (title as
// a bold caption line).
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Markdown renders the figure's table as markdown.
func (f *Figure) Markdown() string { return f.Table().Markdown() }
