package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one workload run share Run.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the log was created
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until write. A nil *spanLog records
// nothing, which is how untraced runs skip tracing.
type spanLog struct {
	origin time.Time
	run    string
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// setRun names the workload run that later spans belong to.
func (l *spanLog) setRun(id string) {
	if l != nil {
		l.run = id
	}
}

// begin opens a span and returns its ID (0 on a nil log).
func (l *spanLog) begin(parent int, name string) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Run: l.run, Name: name,
		StartNs: time.Since(l.origin).Nanoseconds(),
	})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndNs = time.Since(l.origin).Nanoseconds()
}

// write stores every span as a JSON array.
func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
