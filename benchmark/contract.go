package main

import (
	"encoding/json"
	"fmt"
)

// The tables below are the benchmark's contract: BENCHMARK.json at the
// repository root is generated from them (-contract prints it, a test
// checks the file matches), every reported metric takes its unit from
// them, and -compare takes its bounds from them.

// metricDef declares one metric. Bound, on end-to-end metrics only, is
// the share of the old median by which the metric may get worse before
// -compare (and the driver) calls it a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the warehouse would see. Every workload
// reports every one of them; op_p50_ms and ops_per_s describe the
// workload's headline operation: a pool query on query_ro and mixed_rw,
// a durable update ack on update_wo, update-to-visible lag on
// pipeline_lag (where ops_per_s counts only updates visible within
// lagLimit). Tail latencies are per-layer metrics: see the README for
// why they are reported but carry no bound.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"rss_mb", "MB", lower, 0.20},
	{"storage_ratio", "ratio", lower, 0.02},
}

// perLayer names the layers by package. The first group is measured on
// the live processes of the workload being run; the rest come from the
// in-process traced run over the same seeded inputs.
var perLayer = []metricDef{
	{"client.point_p50_ms", "ms", lower, 0},
	{"client.scan_p50_ms", "ms", lower, 0},
	{"client.join_p50_ms", "ms", lower, 0},
	{"client.union_p50_ms", "ms", lower, 0},
	{"client.query_tail_ms", "ms", lower, 0},
	{"client.update_p50_ms", "ms", lower, 0},
	{"client.update_tail_ms", "ms", lower, 0},
	{"client.apply_p50_ms", "ms", lower, 0},
	{"client.apply_tail_ms", "ms", lower, 0},
	{"client.poll_p50_ms", "ms", lower, 0},
	{"client.poll_tail_ms", "ms", lower, 0},
	{"client.lag_p50_ms", "ms", lower, 0},
	{"client.lag_tail_ms", "ms", lower, 0},
	{"client.lag_drift_ms", "ms", lower, 0},
	{"client.lateness_p99_ms", "ms", lower, 0},
	{"dwserve.query_eval_us", "us", lower, 0},
	{"dwserve.query_residual_us", "us", lower, 0},
	{"dwserve.refresh_us", "us", lower, 0},
	{"dwserve.update_residual_us", "us", lower, 0},
	{"dwserve.response_bytes_per_query", "B", lower, 0},
	{"dwserve.scanned_per_emitted", "ratio", lower, 0},
	{"dwserve.index_builds_per_query", "count", lower, 0},
	{"dwserve.restricted_share", "ratio", higher, 0},
	{"dwserve.cpu_ms_per_op", "ms", lower, 0},
	{"dwserve.shed_total", "count", lower, 0},
	{"dwserve.stale_answers_total", "count", lower, 0},
	{"dwserve.refresh_lag_p50_ms", "ms", lower, 0},
	{"dwserve.replica_lag_s", "s", lower, 0},
	{"dwserve.recover_s", "s", lower, 0},
	{"dwserve.bootstrap_s", "s", lower, 0},
	{"dwsource.cpu_ms_per_update", "ms", lower, 0},
	{"follower.cpu_ms_per_poll", "ms", lower, 0},
	{"remote.retries_total", "count", lower, 0},

	{"parse.expr_us", "us", lower, 0},
	{"parse.update_us", "us", lower, 0},
	{"parse.spec_load_ms", "ms", lower, 0},
	{"core.compute_ms", "ms", lower, 0},
	{"warehouse.materialize_ms", "ms", lower, 0},
	{"warehouse.translate_us.paris", "us", lower, 0},
	{"warehouse.translate_us.tokyo", "us", lower, 0},
	{"algebra.eval_us", "us", lower, 0},
	{"algebra.allocs_per_query", "count", lower, 0},
	{"algebra.scanned_per_emitted", "ratio", lower, 0},
	{"algebra.index_builds_per_query", "count", lower, 0},
	{"relation.image_build_us", "us", lower, 0},
	{"relation.clone_us", "us", lower, 0},
	{"maintain.refresh_us.paris", "us", lower, 0},
	{"maintain.refresh_us.tokyo", "us", lower, 0},
	{"maintain.propagate_us.paris", "us", lower, 0},
	{"maintain.propagate_us.tokyo", "us", lower, 0},
	{"maintain.apply_us.paris", "us", lower, 0},
	{"maintain.apply_us.tokyo", "us", lower, 0},
	{"maintain.allocs_per_update.paris", "count", lower, 0},
	{"maintain.allocs_per_update.tokyo", "count", lower, 0},
	{"maintain.restricted_share.paris", "ratio", higher, 0},
	{"maintain.restricted_share.tokyo", "ratio", higher, 0},
	{"maintain.changed_per_source_change.paris", "ratio", lower, 0},
	{"maintain.changed_per_source_change.tokyo", "ratio", lower, 0},
	{"journal.append_us", "us", lower, 0},
	{"journal.bytes_per_update", "B", lower, 0},
	{"journal.replay_us_per_record", "us", lower, 0},
	{"snapshot.save_ms", "ms", lower, 0},
	{"snapshot.bytes_per_row", "B", lower, 0},
	{"snapshot.load_ms", "ms", lower, 0},
	{"source.apply_us", "us", lower, 0},
	{"source.offer_us", "us", lower, 0},
	{"source.duplicates_total", "count", lower, 0},
	{"remote.fetch_ms", "ms", lower, 0},
	{"replica.fetch_snapshot_ms", "ms", lower, 0},
	{"replica.fetch_batch_ms", "ms", lower, 0},
	{"yardstick.point_ms", "ms", lower, 0},
	{"yardstick.boot_s", "s", lower, 0},
	{"benchmark.unattributed_pct", "%", lower, 0},
	{"benchmark.trace_overhead_pct", "%", lower, 0},
}

// runSeconds is the timed window the contract fixes. The driver makes
// 4 + 22 x 4 runs; with 9 to 16 s of set-up, warm-up and checks around
// each window (the larger number in the sandbox's slow phases), 16 s
// keeps the whole series a good tenth inside its time cap.
const runSeconds = 16

// metricSet collects one run's metrics, taking units from a table and
// refusing names the table does not declare.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]metric{}}
}

// unit looks a metric's unit up in the table; reporting a metric the
// contract does not declare is a bug in the benchmark.
func (s *metricSet) unit(name string) string {
	for _, d := range s.defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not in the contract tables")
}

func (s *metricSet) set(name string, v float64) {
	s.values[name] = metric{v, s.unit(name)}
}

// setNs stores the median of durations given in nanoseconds, converted
// to the metric's declared unit.
func (s *metricSet) setNs(name string, ns []float64) {
	scale := map[string]float64{"us": 1e3, "ms": 1e6, "s": 1e9}[s.unit(name)]
	s.set(name, median(ns)/scale)
}

// complete returns the metrics, or an error naming a declared metric
// the run did not produce.
func (s *metricSet) complete() (map[string]metric, error) {
	for _, d := range s.defs {
		if _, ok := s.values[d.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	return s.values, nil
}

// contractJSON renders BENCHMARK.json.
func contractJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}
