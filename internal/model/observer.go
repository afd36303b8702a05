package model

import "granulock/internal/trace"

// ResponseCollector records the response time of every completed
// transaction (optionally only those completing after a warmup time),
// for batch-means confidence intervals over a single run.
type ResponseCollector struct {
	// After drops completions at or before this simulated time.
	After float64
	// Responses holds the collected samples in completion order.
	Responses []float64
}

// Observe implements trace.Observer.
func (c *ResponseCollector) Observe(e trace.Event) {
	if e.Kind == trace.EventComplete && e.At > c.After {
		c.Responses = append(c.Responses, e.Response)
	}
}

// ClassCollector accumulates per-class completion counts and response
// times for mixed workloads (§3.6). Class indexes follow Params.Classes.
type ClassCollector struct {
	Completions []int
	RespSums    []float64
}

// Observe implements trace.Observer.
func (c *ClassCollector) Observe(e trace.Event) {
	if e.Kind != trace.EventComplete {
		return
	}
	for len(c.Completions) <= e.Class {
		c.Completions = append(c.Completions, 0)
		c.RespSums = append(c.RespSums, 0)
	}
	c.Completions[e.Class]++
	c.RespSums[e.Class] += e.Response
}

// MeanResponse returns the mean response time of one class (0 if it
// never completed).
func (c *ClassCollector) MeanResponse(class int) float64 {
	if class < 0 || class >= len(c.Completions) || c.Completions[class] == 0 {
		return 0
	}
	return c.RespSums[class] / float64(c.Completions[class])
}
