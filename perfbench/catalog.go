package main

// metricDef names one reported metric. The lists below are the
// benchmark's contract and match BENCHMARK.json entry for entry (a test
// keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd is reported by untraced runs (--trace 0). Host-time
// metrics first; every virt_* value is a pure function of the seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_ops_per_s", "ops/s", "higher"},
	{"allocs_per_op", "allocs", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"virt_s", "s", "lower"},
	{"virt_p50_ms", "ms", "lower"},
	{"virt_p99_ms", "ms", "lower"},
	{"virt_ok_ratio", "fraction", "higher"},
}

// perLayer is reported by traced runs (--trace 1). Every workload
// prints every entry; a layer a workload does not reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// toolstack: host time per public call, and call counts.
		{"toolstack.create_us_p50", "us", "lower"},
		{"toolstack.create_us_p99", "us", "lower"},
		{"toolstack.destroy_us_p50", "us", "lower"},
		{"toolstack.destroy_us_p99", "us", "lower"},
		{"toolstack.replenish_us_p50", "us", "lower"},
		{"toolstack.replenish_us_p99", "us", "lower"},
		{"toolstack.fsck_ms", "ms", "lower"},
		{"toolstack.creates", "count", "higher"},
		{"toolstack.destroys", "count", "higher"},
		// virt: the Fig. 5 split of simulated create time, mean per
		// create.
		{"virt.config_ms", "ms", "lower"},
		{"virt.hypervisor_ms", "ms", "lower"},
		{"virt.xenstore_ms", "ms", "lower"},
		{"virt.devices_ms", "ms", "lower"},
		{"virt.load_ms", "ms", "lower"},
		{"virt.toolstack_ms", "ms", "lower"},
	}
	// State sizes after set-up and after the timed phase.
	for _, when := range []string{"setup", "end"} {
		defs = append(defs,
			metricDef{"xenstore.nodes_" + when, "count", "lower"},
			metricDef{"xenstore.watches_" + when, "count", "lower"},
			metricDef{"hv.domains_" + when, "count", "lower"},
			metricDef{"hv.ports_" + when, "count", "lower"},
			metricDef{"hv.grants_" + when, "count", "lower"},
			metricDef{"mm.used_mb_" + when, "MB", "lower"},
		)
	}
	defs = append(defs,
		// traffic: serving timelines (serve-storm).
		metricDef{"traffic.calibrate_ms", "ms", "lower"},
		metricDef{"traffic.serve_ms_p50", "ms", "lower"},
		metricDef{"traffic.arrived", "count", "higher"},
		metricDef{"traffic.served", "count", "higher"},
		metricDef{"traffic.rejected", "count", "lower"},
		metricDef{"traffic.rejected_backlog", "count", "lower"},
		metricDef{"traffic.timed_out", "count", "lower"},
		metricDef{"traffic.retries", "count", "lower"},
		metricDef{"traffic.brownout_ms", "ms", "lower"},
		metricDef{"traffic.reject_ratio", "fraction", "lower"},
		metricDef{"virt.resp_p99_ms.vm-xl", "ms", "lower"},
		metricDef{"virt.resp_p99_ms.vm", "ms", "lower"},
		// cluster, sim and migrate (fleet-churn).
		metricDef{"cluster.new_ms", "ms", "lower"},
		metricDef{"cluster.run_churn_s", "s", "lower"},
		metricDef{"cluster.created", "count", "higher"},
		metricDef{"cluster.migrations", "count", "higher"},
		metricDef{"cluster.failovers", "count", "higher"},
		metricDef{"cluster.fenced", "count", "lower"},
		metricDef{"cluster.saturated", "count", "lower"},
		metricDef{"cluster.unplaced", "count", "lower"},
		metricDef{"sim.events", "count", "higher"},
		metricDef{"sim.windows", "count", "lower"},
		metricDef{"sim.messages", "count", "lower"},
		metricDef{"sim.events_per_window", "events", "higher"},
		metricDef{"virt.migrate_ms_p99", "ms", "lower"},
		metricDef{"virt.failover_ms_p99", "ms", "lower"},
		// Go runtime over the timed phase.
		metricDef{"runtime.gc_cpu_share", "fraction", "lower"},
		metricDef{"runtime.alloc_mb_per_op", "MB", "lower"},
	)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "fraction", "lower"})
	}
	for _, s := range spanNames {
		defs = append(defs, metricDef{"span." + s + ".self_ms", "ms", "lower"})
	}
	return append(defs, metricDef{"trace.overhead_ratio", "ratio", "lower"})
}()
