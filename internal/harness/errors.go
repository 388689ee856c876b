package harness

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"ctbia/internal/obs"
)

// PointError describes one measurement point (or whole experiment) that
// could not be produced: a panicking worker, a simulator-verification
// failure, or an exhausted retry sequence. RunAll and the sweep
// experiments recover worker panics into PointErrors so a single bad
// point costs one FAILED row, never the sweep.
type PointError struct {
	// Experiment is the experiment id, when known at capture time
	// (FailedResult fills it in for experiment-level failures).
	Experiment string
	// Point labels the failing data point ("hist_4000"); empty for
	// experiment-level failures.
	Point string
	// Strategy names the failing strategy when the point is measured as
	// one run per strategy (a Fig. 7 row).
	Strategy string
	// Err is the underlying cause.
	Err error
	// Stack is the goroutine stack captured at the recovery site.
	Stack []byte
	// Attempts counts how many times the point was tried before
	// giving up (1 when the failure was not retryable).
	Attempts int
}

// Error renders the failure with its location chain.
func (e *PointError) Error() string {
	var b strings.Builder
	b.WriteString("point failed")
	if e.Experiment != "" {
		fmt.Fprintf(&b, " [%s]", e.Experiment)
	}
	if e.Point != "" {
		fmt.Fprintf(&b, " %s", e.Point)
	}
	if e.Strategy != "" {
		fmt.Fprintf(&b, " (%s)", e.Strategy)
	}
	if e.Attempts > 1 {
		fmt.Fprintf(&b, " after %d attempts", e.Attempts)
	}
	fmt.Fprintf(&b, ": %v", e.Err)
	return b.String()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PointError) Unwrap() error { return e.Err }

// toPointError converts a recovered panic value into a PointError,
// preserving an already-typed one and capturing the stack otherwise.
// Every recovery funnel passes through here, so it doubles as the
// observability layer's failure counter.
func toPointError(p any) *PointError {
	obs.Add("harness.point_errors", 1)
	switch v := p.(type) {
	case *PointError:
		if v.Stack == nil {
			v.Stack = debug.Stack()
		}
		return v
	case error:
		return &PointError{Err: v, Attempts: 1, Stack: debug.Stack()}
	default:
		return &PointError{Err: fmt.Errorf("panic: %v", v), Attempts: 1, Stack: debug.Stack()}
	}
}

// Fail records one unmeasurable point on the table: a row whose
// non-label cells read FAILED, plus a Failures entry that Commit keeps
// out of the result cache and ctbench surfaces in its exit status.
func (t *Table) Fail(label string, err error) {
	row := make([]string, 0, len(t.Headers))
	row = append(row, label)
	for i := 1; i < len(t.Headers); i++ {
		row = append(row, "FAILED")
	}
	t.Rows = append(t.Rows, row)
	pe := toPointErrorValue(err)
	pe.Experiment = t.ID
	if pe.Point == "" {
		pe.Point = label
	}
	t.Failures = append(t.Failures, pe)
	t.Notes = append(t.Notes, fmt.Sprintf("FAILED %s: %s", label, firstLine(pe.Err.Error())))
}

// toPointErrorValue is toPointError for error values (no re-capture of
// the stack when the error already carries one).
func toPointErrorValue(err error) *PointError {
	var pe *PointError
	if errors.As(err, &pe) {
		return pe
	}
	return &PointError{Err: err, Attempts: 1}
}

// Failed reports whether any of the table's points failed.
func (t *Table) Failed() bool { return len(t.Failures) > 0 }

// FailedResult is the outcome of an experiment that produced no table:
// its Run panicked, or a fleet upload carried none worth serving. The
// FAILED placeholder keeps no partial rows (point-level failures keep
// their partial tables instead) and shows the cause's first line.
func FailedResult(e Experiment, err error) Result {
	pe := toPointErrorValue(err)
	pe.Experiment = e.ID
	t := &Table{ID: e.ID, Title: e.Title, Paper: e.Paper,
		Headers: []string{"status", "error"}}
	t.AddRow("FAILED", firstLine(pe.Err.Error()))
	t.Failures = append(t.Failures, pe)
	return Result{Experiment: e, Table: t, Err: pe}
}

// ParsePointError rebuilds a failure of experiment id from its rendered
// line — all a fleet worker uploads — so that Error() returns exactly
// that line again. The location after the experiment (point, strategy,
// attempts) is kept verbatim as Point; a line no PointError of id
// rendered becomes the cause of an experiment-level failure.
func ParsePointError(id, line string) *PointError {
	pe := &PointError{Experiment: id, Err: errors.New(line), Attempts: 1}
	rest, ok := strings.CutPrefix(line, "point failed ["+id+"]")
	if loc, cause, found := strings.Cut(rest, ": "); ok && found && (loc == "" || loc[0] == ' ') {
		pe.Point, pe.Err = strings.TrimPrefix(loc, " "), errors.New(cause)
	}
	return pe
}

// firstLine truncates s at its first newline, for one-line summaries.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Failures flattens every failure in a RunAll result set —
// experiment-level panics and per-point FAILED rows alike — in result
// order, for the CLI's summary and exit status.
func Failures(results []Result) []*PointError {
	var out []*PointError
	for _, r := range results {
		if r.Err != nil {
			// The experiment-level error is also recorded on the
			// placeholder table; report it once.
			out = append(out, r.Err)
			continue
		}
		if r.Table != nil {
			out = append(out, r.Table.Failures...)
		}
	}
	return out
}
