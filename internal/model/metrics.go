package model

import (
	"granulock/internal/obs"
	"granulock/internal/trace"
)

// Metric family names the simulation writes. Exported through the
// docs (docs/OBSERVABILITY.md) rather than as Go constants; listed
// here once so the observer and the recorder agree.
const (
	simEventsName   = "granulock_sim_events_total"
	simResponseName = "granulock_sim_response_time_units"
	simTxnLocksName = "granulock_sim_txn_locks"
)

// metricsObserver is a trace.Observer mirroring every simulation lifecycle
// event into a Registry: per-kind event counters, a response-time
// histogram and a locks-per-transaction histogram. It is attached only
// when a registry is supplied (granulock.WithMetrics); with none, the
// simulation runs the exact pre-instrumentation code path.
type metricsObserver struct {
	arrivals    *obs.Counter
	requests    *obs.Counter
	grants      *obs.Counter
	denials     *obs.Counter
	completions *obs.Counter
	response    *obs.Histogram
	txnLocks    *obs.Histogram
}

// NewMetricsObserver returns an observer that records the simulation's
// lifecycle events into reg. Families are registered idempotently, so
// successive runs against one registry accumulate; each kind's counter
// is resolved here, once, and labelled with the kind's own name.
func NewMetricsObserver(reg *obs.Registry) trace.Observer {
	events := reg.NewCounterVec(simEventsName,
		"Simulation lifecycle events by kind (arrive, request, grant, deny, complete).", "kind")
	return &metricsObserver{
		arrivals:    events.With(string(trace.EventArrive)),
		requests:    events.With(string(trace.EventRequest)),
		grants:      events.With(string(trace.EventGrant)),
		denials:     events.With(string(trace.EventDeny)),
		completions: events.With(string(trace.EventComplete)),
		response: reg.NewHistogram(simResponseName,
			"Transaction response time in simulated time units.",
			obs.ExpBuckets(1, 2, 14)), // 1 .. 8192 time units
		txnLocks: reg.NewHistogram(simTxnLocksName,
			"Locks requested per transaction.",
			obs.ExpBuckets(1, 2, 12)), // 1 .. 2048 locks
	}
}

// Observe implements trace.Observer.
func (m *metricsObserver) Observe(e trace.Event) {
	switch e.Kind {
	case trace.EventArrive:
		m.arrivals.Inc()
		m.txnLocks.Observe(float64(e.Locks))
	case trace.EventRequest:
		m.requests.Inc()
	case trace.EventGrant:
		m.grants.Inc()
	case trace.EventDeny:
		m.denials.Inc()
	case trace.EventComplete:
		m.completions.Inc()
		m.response.Observe(e.Response)
	}
}

// RecordMetrics publishes a finished run's output parameters into reg
// as gauges: the headline quantities plus the per-resource busy-time
// decomposition (total vs lock-management time on CPUs and disks) the
// paper's figures are built from. Called by the facade after each
// instrumented run; the gauges hold the latest run's values.
func RecordMetrics(reg *obs.Registry, m Metrics) {
	reg.NewGauge("granulock_sim_throughput",
		"Last run's throughput in transactions per time unit.").Set(m.Throughput)
	reg.NewGauge("granulock_sim_mean_response_units",
		"Last run's mean transaction response time in time units.").Set(m.MeanResponse)
	reg.NewGauge("granulock_sim_denial_rate",
		"Last run's fraction of lock requests denied.").Set(m.DenialRate)
	reg.NewGauge("granulock_sim_mean_active",
		"Last run's time-average number of active transactions.").Set(m.MeanActive)
	busy := reg.NewGaugeVec("granulock_sim_busy_time_units",
		"Last run's aggregate busy time over the measurement window, by resource and work class.",
		"resource", "class")
	busy.With("cpu", "total").Set(m.TotCPUs)
	busy.With("cpu", "lock").Set(m.LockCPUs)
	busy.With("cpu", "useful").Set(m.UsefulCPUs)
	busy.With("disk", "total").Set(m.TotIOs)
	busy.With("disk", "lock").Set(m.LockIOs)
	busy.With("disk", "useful").Set(m.UsefulIOs)
	counts := reg.NewGaugeVec("granulock_sim_run_counts",
		"Last run's integer output parameters.", "quantity")
	counts.With("completions").Set(float64(m.TotCom))
	counts.With("lock_requests").Set(float64(m.LockRequests))
	counts.With("lock_denials").Set(float64(m.LockDenials))
	counts.With("completed_entities").Set(float64(m.CompletedEntities))
	counts.With("events").Set(float64(m.Events))
}
