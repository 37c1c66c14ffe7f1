package core

import (
	"fmt"
	"strings"
)

// Progress classifies the termination guarantee of a scheme's memory
// reclamation procedures (last-but-one row of the paper's Figure 2).
type Progress int

// Progress values, ordered roughly from weakest to strongest.
const (
	// ProgressBlocking means a crashed process can block reclamation code
	// of other processes (e.g. ThreadScan's global lock + acknowledgments).
	ProgressBlocking Progress = iota
	// ProgressLockFree means reclamation procedures are lock-free.
	ProgressLockFree
	// ProgressLockFreeConditional means lock-free only under an extra
	// assumption (e.g. QSense's rooster processes never crash).
	ProgressLockFreeConditional
	// ProgressWaitFree means reclamation procedures are wait-free.
	ProgressWaitFree
	// ProgressWaitFreeSignal means wait-free provided the operating
	// system's signalling mechanism is wait-free (DEBRA+).
	ProgressWaitFreeSignal
)

// String implements fmt.Stringer.
func (p Progress) String() string {
	switch p {
	case ProgressBlocking:
		return "Blocking"
	case ProgressLockFree:
		return "L"
	case ProgressLockFreeConditional:
		return "L (conditional)"
	case ProgressWaitFree:
		return "W"
	case ProgressWaitFreeSignal:
		return "W (signal)"
	default:
		return fmt.Sprintf("Progress(%d)", int(p))
	}
}

// Properties records the qualitative characteristics of a reclamation scheme
// that the paper tabulates in Figure 2, plus two flags this reproduction
// needs at runtime (PerRecordProtection, CrashRecovery).
type Properties struct {
	// Scheme is the display name used in the Figure 2 table ("DEBRA+").
	Scheme string

	// Necessary code modifications (Figure 2, first block of rows).
	ModPerAccessedRecord bool   // code required per record accessed
	ModPerOperation      bool   // code required per operation
	ModPerRetiredRecord  bool   // code required per retired record
	ModOther             string // other modifications ("write recovery code", ...)

	// TimingAssumptions notes special timing assumptions: "" (none),
	// "for progress" (ThreadScan) or "for correctness" (QSense).
	TimingAssumptions string

	// FaultTolerant reports whether crashed processes can only prevent a
	// bounded number of records from being reclaimed.
	FaultTolerant bool

	// Termination is the progress guarantee of the reclamation procedures.
	Termination Progress

	// TraverseRetiredToRetired reports whether the scheme supports data
	// structures in which an operation can traverse a pointer from a
	// retired record to another retired record (the property that rules
	// out HP, ThreadScan and StackTrack for many natural structures).
	TraverseRetiredToRetired bool

	// BoundedGarbage reports whether the number of retired-but-unfreed
	// records is bounded (O(mn^2) for DEBRA+ and HP; unbounded for EBR and
	// DEBRA when a thread stalls mid-operation).
	BoundedGarbage bool

	// PerRecordProtection tells data structures whether they must invoke
	// Protect (and validate) for every record they access. It is the
	// runtime analogue of compiling the data structure against an HP-style
	// reclaimer; epoch-based schemes set it to false so the calls are
	// skipped entirely.
	PerRecordProtection bool

	// CrashRecovery tells data structures that the scheme neutralizes
	// stalled threads mid-operation, so every operation body must be wrapped
	// in recovery code (the paper's supportsCrashRecovery predicate; DEBRA+).
	// It is not FaultTolerant: hazard pointers tolerate crashes without ever
	// interrupting an operation.
	CrashRecovery bool
}

// FigureTwoHeader returns the column headers of the Figure 2 comparison
// table rendered by RenderFigureTwo.
func FigureTwoHeader() []string {
	return []string{
		"scheme",
		"per accessed record",
		"per operation",
		"per retired record",
		"other modifications",
		"timing assumptions",
		"fault tolerant",
		"termination",
		"retired->retired traversal",
		"bounded garbage",
	}
}

// Row renders the Properties as one row of the Figure 2 table.
func (p Properties) Row() []string {
	check := func(b bool) string {
		if b {
			return "X"
		}
		return ""
	}
	other := p.ModOther
	if other == "" {
		other = "-"
	}
	timing := p.TimingAssumptions
	if timing == "" {
		timing = "-"
	}
	return []string{
		p.Scheme,
		check(p.ModPerAccessedRecord),
		check(p.ModPerOperation),
		check(p.ModPerRetiredRecord),
		other,
		timing,
		check(p.FaultTolerant),
		p.Termination.String(),
		check(p.TraverseRetiredToRetired),
		check(p.BoundedGarbage),
	}
}

// RenderFigureTwo renders an aligned, plain-text version of the paper's
// Figure 2 for the given schemes.
func RenderFigureTwo(props []Properties) string {
	rows := [][]string{FigureTwoHeader()}
	for _, p := range props {
		rows = append(rows, p.Row())
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	for ri, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, cell)
		}
		sb.WriteByte('\n')
		if ri == 0 {
			for i := range row {
				sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// ReferenceProperties returns Figure 2 rows for the schemes surveyed in the
// paper that this module does not implement (RC, B&C, TS, DTA, QS, OA), so
// cmd/schemes can reproduce the complete table. Implemented schemes report
// their own Properties via Reclaimer.Props.
func ReferenceProperties() []Properties {
	return []Properties{
		{
			Scheme:                   "RC",
			ModPerAccessedRecord:     true,
			ModPerRetiredRecord:      true,
			ModOther:                 "break pointer cycles",
			FaultTolerant:            true,
			Termination:              ProgressLockFree,
			TraverseRetiredToRetired: true,
			BoundedGarbage:           true,
		},
		{
			Scheme:               "B&C",
			ModPerAccessedRecord: true,
			ModPerRetiredRecord:  true,
			ModOther:             "recovery when HP acquisition fails; replace retired->retired pointers",
			FaultTolerant:        true,
			Termination:          ProgressLockFree,
			// B&C's whole point is allowing HPs to retired records.
			TraverseRetiredToRetired: true,
			BoundedGarbage:           true,
		},
		{
			Scheme:              "TS",
			ModPerRetiredRecord: true,
			TimingAssumptions:   "for progress",
			Termination:         ProgressBlocking,
			BoundedGarbage:      true,
		},
		{
			Scheme:               "DTA",
			ModPerAccessedRecord: true,
			ModPerOperation:      true,
			ModPerRetiredRecord:  true,
			ModOther:             "integrate crash recovery with list synchronisation (lists only)",
			FaultTolerant:        true,
			Termination:          ProgressLockFree,
			BoundedGarbage:       true,
		},
		{
			Scheme:               "QS",
			ModPerAccessedRecord: true,
			ModPerOperation:      true,
			ModPerRetiredRecord:  true,
			TimingAssumptions:    "for correctness",
			FaultTolerant:        true,
			Termination:          ProgressLockFreeConditional,
			BoundedGarbage:       true,
		},
		{
			Scheme:               "OA",
			ModPerAccessedRecord: true,
			ModPerOperation:      true,
			ModPerRetiredRecord:  true,
			ModOther:             "normalized form; instrument every read, write and CAS",
			FaultTolerant:        true,
			Termination:          ProgressLockFree,
			BoundedGarbage:       true,
		},
	}
}
