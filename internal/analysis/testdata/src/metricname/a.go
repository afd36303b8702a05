// Fixture for the metricname analyzer: family registrations on a
// Registry must use constant granulock_<subsystem>_<name> names and
// must not sit inside loops.
package metricname

// Registry mirrors the obs.Registry registration surface; the analyzer
// matches any type named Registry so fixtures need not import obs.
type Registry struct{}

type Counter struct{}

func (c *Counter) Inc() {}

func (r *Registry) NewCounter(name, help string) *Counter             { return &Counter{} }
func (r *Registry) NewGauge(name, help string) *Counter               { return &Counter{} }
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {}

func bad(r *Registry, dyn string) {
	r.NewCounter("lockmgr_grants_total", "h")         // want `does not match granulock_<subsystem>_<name>`
	r.NewCounter("granulock_grants", "h")             // want `does not match granulock_<subsystem>_<name>`
	r.NewCounter("granulock_Lock_Grants", "h")        // want `does not match granulock_<subsystem>_<name>`
	r.NewGauge(dyn, "h")                              // want `non-constant family name`
	r.NewCounterFunc("lockmgr_waits_total", "h", nil) // want `does not match granulock_<subsystem>_<name>`
	for i := 0; i < 3; i++ {
		r.NewCounter("granulock_sweep_cells_total", "h").Inc() // want `NewCounter inside a loop`
	}
}

func good(r *Registry) {
	c := r.NewCounter("granulock_lockmgr_grants_total", "h")
	r.NewCounterFunc("granulock_lockmgr_waits_total", "h", func() int64 { return 0 })
	for i := 0; i < 3; i++ {
		c.Inc() // resolved series may be used in loops; registration may not
	}
}

// A same-named method on a non-Registry type is not a registration.
type other struct{}

func (o *other) NewCounter(name, help string) *Counter { return &Counter{} }

func unrelated(o *other) {
	o.NewCounter("whatever", "h")
}
