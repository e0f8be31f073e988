package main

import "time"

// span is one timed call from the benchmark into a layer of the program.
// Spans of one request share Req; Parent indexes the enclosing span, -1 for
// a request's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"request"`
}

// tracer keeps spans in memory around each public call the workloads make.
// While off, start and stop do nothing, so an untraced run pays one branch
// per call.
type tracer struct {
	on    bool
	epoch time.Time
	req   int
	spans []span
	open  []int // indexes of the spans not yet stopped, innermost last
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span named name under the innermost open span and returns
// its handle for stop.
func (t *tracer) start(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch).Nanoseconds(), Parent: parent, Req: t.req})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// stop closes the span start returned; spans close innermost first.
func (t *tracer) stop(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// selfNanos sums each span name's self time: span duration minus the part
// its child spans cover. Children of one span never overlap, because one
// client goroutine makes every call.
func selfNanos(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}
