package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric and its unit. The names are the repo's
// contract with every later performance or simplicity PR (and with
// BENCHMARK.json, which metrics_test.go holds equal to these lists), so
// they are fixed here and nowhere else.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists what a user of the system sees, measured with tracing
// off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"tput_ops_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"alloc_b_per_op", "B"},
	{"setup_s", "s"},
}

// protoNames are the registered concurrency-control protocols the
// cc.proto probe compares. BENCHMARK.json is static, so the list is too;
// a protocol registered later joins the benchmark by its own PR.
var protoNames = []string{"claim-as-needed", "conservative", "hierarchical", "optimistic", "wait-die", "wound-wait"}

// sweepLtot is the granularity axis of the live-engine probe of the
// paper's Fig. 2 curve.
var sweepLtot = []int{1, 16, 64, 256, 1024, 4096}

// perLayer lists the single-layer metrics of the traced run, the layer
// replays and the probes, named <layer>.<metric>. A workload reports 0
// for the layers it does not touch.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"trace.overhead_ratio", "ratio"},
		{"process.cpu_us_per_op", "us"},

		{"sim.events_per_s", "1/s"},
		{"model.cell_ms_p50", "ms"},
		{"model.allocs_per_cell", "count"},

		{"engine.execute_us_p50", "us"},
		{"engine.execute_us_p99", "us"},
		{"engine.self_us_p50", "us"},
		{"engine.residual_us", "us"},
		{"engine.restart_ratio", "ratio"},
	}
	for _, l := range sweepLtot {
		defs = append(defs, metricDef{fmt.Sprintf("engine.sweep.tput_ops_s.ltot%d", l), "1/s"})
	}
	defs = append(defs,
		metricDef{"engine.sweep.ltot_opt", "count"},

		metricDef{"cc.acquire_us_p50", "us"},
		metricDef{"cc.acquire_us_p99", "us"},
		metricDef{"cc.work_us_p50", "us"},
		metricDef{"cc.rw_us_p50", "us"},
		metricDef{"cc.commit_us_p50", "us"},
		metricDef{"cc.commit_us_p99", "us"},
		metricDef{"cc.end_us_p50", "us"},
	)
	for _, p := range protoNames {
		defs = append(defs, metricDef{"cc.proto.tput_ops_s." + p, "1/s"})
	}
	for _, p := range protoNames {
		defs = append(defs, metricDef{"cc.proto.restart_ratio." + p, "ratio"})
	}
	return append(defs,
		metricDef{"lockmgr.blocks_per_op", "ratio"},
		metricDef{"lockmgr.grants_per_op", "ratio"},
		metricDef{"lockmgr.deadlocks", "count"},
		metricDef{"lockmgr.fast_grant_ratio", "ratio"},
		metricDef{"lockmgr.claim_us_p50", "us"},
		metricDef{"lockmgr.claim_us_p99", "us"},
		metricDef{"lockmgr.release_us_p50", "us"},
		metricDef{"lockmgr.allocs_per_claim", "count"},

		metricDef{"wal.syncs_per_commit", "ratio"},
		metricDef{"wal.bytes_per_commit", "B"},
		metricDef{"wal.write_amp", "ratio"},
		metricDef{"wal.commit_us_p50", "us"},
		metricDef{"wal.commit_us_p99", "us"},
		metricDef{"wal.commit_us_p50.c1", "us"},
		metricDef{"wal.fsync_us_p50", "us"},
		metricDef{"wal.recover_records_per_s", "1/s"},
		metricDef{"wal.recover_ms_per_ktxn", "ms"},

		metricDef{"locksrv.acquire_us_p50", "us"},
		metricDef{"locksrv.acquire_us_p99", "us"},
		metricDef{"locksrv.release_us_p50", "us"},
		metricDef{"locksrv.release_us_p99", "us"},
		metricDef{"locksrv.stats_rtt_us_p50", "us"},
		metricDef{"locksrv.server_wait_ms_p50", "ms"},
		metricDef{"locksrv.server_wait_ms_p99", "ms"},
		metricDef{"locksrv.timeouts", "count"},
		metricDef{"locksrv.force_releases", "count"},
		metricDef{"locksrv.reconnects", "count"},
		metricDef{"locksrv.retries", "count"},
		metricDef{"locksrv.batch.tput_ops_s", "1/s"},
		metricDef{"locksrv.journal_on.tput_ops_s", "1/s"},
	)
}

// values maps a metric name to its measured value.
type values map[string]float64

// metricJSON is one metric on the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload in one mode produced. Its JSON
// form is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// render turns measured values into the metrics of a result line: every
// name of defs appears, with 0 for a layer the workload does not touch.
// requireAll refuses a missing or zero value (end-to-end metrics are
// compared as ratios, so none may be 0).
func render(defs []metricDef, vs values, requireAll bool) (map[string]metricJSON, error) {
	out := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		v, ok := vs[d.Name]
		if requireAll && (!ok || v == 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	for name := range vs {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the benchmark's lists", name)
		}
	}
	return out, nil
}

// spec is the part of BENCHMARK.json the compare mode and the tests read.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
