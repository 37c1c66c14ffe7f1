package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around its calls into each layer; spans inside
// the program are a later change.
type span struct {
	name       string
	start, end int64 // ns since epoch
	parent     int32 // index of the causing span in the same recorder, -1 for a root
	req        uint64
	ops        int32 // operations the span covers
}

// recorder keeps one goroutine's spans in memory until the run ends. It is
// single-writer; a run has one per worker plus one for the replay.
type recorder struct {
	mask    int64 // the owner traces one unit of work in mask+1
	spans   []span
	dropped int64
}

// maxSpans bounds one recorder's memory (40 B per span).
const maxSpans = 1 << 18

func newRecorder(mask int64) *recorder {
	return &recorder{mask: mask, spans: make([]span, 0, maxSpans)}
}

// add records a finished span and returns its index for its children.
func (r *recorder) add(name string, start, end int64, parent int32, req uint64, ops int) int32 {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{name, start, end, parent, req, int32(ops)})
	return int32(len(r.spans) - 1)
}

// layerTime is what one span name adds up to.
type layerTime struct {
	SelfNs int64 `json:"self_ns"` // Σ (duration − children's durations)
	Ops    int64 `json:"ops"`
	Spans  int64 `json:"spans"`
}

func (l layerTime) nsPerOp() float64 {
	if l.Ops == 0 {
		return 0
	}
	return float64(l.SelfNs) / float64(l.Ops)
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part its children cover (children of one parent do not overlap here).
func selfTimes(recs ...*recorder) map[string]layerTime {
	out := map[string]layerTime{}
	for _, r := range recs {
		children := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				children[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			l := out[s.name]
			l.SelfNs += s.end - s.start - children[i]
			l.Ops += int64(s.ops)
			l.Spans++
			out[s.name] = l
		}
	}
	return out
}

// outDir is where a run leaves its span file and its run record.
const outDir = "benchmark/out"

// writeSpans writes every recorder's spans as JSON lines. Span ids are
// global: a recorder's local indices are shifted by the spans before it.
func writeSpans(workload string, recs ...*recorder) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	base := 0
	for _, r := range recs {
		for i, s := range r.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d,"ops":%d}`+"\n",
				base+i, parent, s.req, s.name, s.start, s.end, s.ops)
		}
		base += len(r.spans)
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
