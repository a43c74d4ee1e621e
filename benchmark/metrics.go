package main

// metricDef declares one metric: BENCHMARK.json lists exactly these names,
// units and directions (a test holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	bound float64
}

// endToEnd are the costs a user of the system pays and the modelled results
// they read, reported by every workload from untraced runs only. "Host" is
// this machine's clock; "result" is the run's own time axis — virtual seconds
// in the simulator, the server's wall clock on the wire.
//
// Host times are in reference seconds: each rep's times are divided by the
// speed index its gauge measured beside the run (speed.go), because the
// shared sandbox slows every program by 1.2–2.5× for seconds to minutes at a
// time. The raw rate and the index are the per-layer host.* metrics. The time
// metrics are rates, not times per round, so that what slowdown the gauge
// misses shows smaller (1.3× slower is +30 % on a time, −23 % on a rate).
var endToEnd = []metricDef{
	// Child-process start → the call into core.Run / transport.Serve (host,
	// reference seconds by the index of the run that follows).
	{"setup_s", "s", "lower", 0.25},
	// Result.Rounds ÷ wall time of the Run/Serve call (host, reference
	// seconds).
	{"rounds_per_s", "rounds/s", "higher", 0.25},
	// Result.Rounds ÷ process user+sys CPU over the same interval (host,
	// reference seconds): shows a wall gain bought by burning more cores.
	{"rounds_per_cpu_s", "rounds/s", "higher", 0.25},
	// Result.Rounds ÷ Result.Time: the paper's time axis (result clock; on
	// the wire a host time, so reference seconds there).
	{"rounds_per_result_s", "rounds/s", "higher", 0.25},
	// runtime.MemStats.TotalAlloc delta ÷ rounds.
	{"alloc_mb_per_round", "MB", "lower", 0.10},
	// VmHWM of a child process that ran exactly one rep.
	{"peak_rss_mb", "MB", "lower", 0.20},
	// Σ(DownBytes+UpBytes) ÷ rounds: priced by codec.FrameBytes in the
	// simulator, measured frames on the wire.
	{"traffic_mb_per_round", "MB", "lower", 0.20},
}

// perLayer are the single-layer metrics of the traced run, named
// "<layer>.<metric>". Source: S = seam span of the traced rep, P = direct
// probe of the layer's public functions at the workload's own shapes, R =
// read from core.Result. A metric whose layer the workload does not use
// reports 0.
var perLayer = []metricDef{
	{"tensor.gemm256_gflops", "GFLOP/s", "higher", 0},   // P
	{"tensor.matvec256_gflops", "GFLOP/s", "higher", 0}, // P

	{"nn.train_ms_per_round", "ms", "lower", 0},       // S
	{"nn.train_us_per_step", "us", "lower", 0},        // S
	{"nn.train_steps_per_round", "count", "lower", 0}, // S
	{"nn.eval_ms_per_round", "ms", "lower", 0},        // S
	{"nn.sgd_step_us", "us", "lower", 0},              // P
	{"nn.weights_copy_us", "us", "lower", 0},          // P

	{"zoo.build_ms_per_round", "ms", "lower", 0},       // S
	{"zoo.build_calls_per_round", "count", "lower", 0}, // S
	{"zoo.build_us_per_call", "us", "lower", 0},        // S

	{"prune.plan_ms_per_round", "ms", "lower", 0},    // S
	{"prune.sparse_ms_per_round", "ms", "lower", 0},  // S
	{"prune.recover_ms_per_round", "ms", "lower", 0}, // S
	{"prune.assign_ms_per_round", "ms", "lower", 0},  // R (RoundStat.PruneSeconds)

	{"bandit.decide_ms_per_round", "ms", "lower", 0}, // R (RoundStat.DecisionSeconds)
	{"bandit.select_observe_ns", "ns", "lower", 0},   // P

	{"cluster.device_us", "us", "lower", 0},    // P
	{"cluster.available_ns", "ns", "lower", 0}, // P

	{"simsched.push_pop_ns", "ns", "lower", 0},         // P
	{"simsched.events_per_round", "count", "lower", 0}, // R

	{"data.next_ms_per_round", "ms", "lower", 0}, // S
	{"data.sources_ms", "ms", "lower", 0},        // S

	{"metrics.stream_observe_ns", "ns", "lower", 0}, // P

	// Traced GOMAXPROCS=1 wall ÷ rounds − Σ seam spans: SGD step, weight
	// clone/delta, FrameBytes pricing, aggregation, scheduler, cohort
	// sampling, GC (simulator only).
	{"core.self_ms_per_round", "ms", "lower", 0}, // S
	// rounds_per_s at nproc ÷ at GOMAXPROCS=1, both untraced (simulator).
	{"core.par_speedup", "x", "higher", 0},                // R
	{"core.participants_per_round", "count", "higher", 0}, // R
	{"core.dropped_per_round", "count", "lower", 0},       // R
	// Modelled results that differ from seed to seed too much for an
	// end-to-end bound: last evaluation's loss, and the result-clock time of
	// the first evaluation that met the workload's quality target (the
	// paper's time-to-accuracy; 0 when the run keeps no trajectory).
	{"core.final_loss", "nats", "lower", 0}, // R
	{"core.s_to_target", "s", "lower", 0},   // R

	{"codec.assign_frame_kb", "kB", "lower", 0},            // P
	{"codec.framebytes_us", "us", "lower", 0},              // P
	{"codec.encode_us_per_frame", "us", "lower", 0},        // P
	{"codec.decode_us_per_frame", "us", "lower", 0},        // P
	{"codec.decode_allocs_per_frame", "count", "lower", 0}, // P
	{"codec.decode_reuse_us_per_frame", "us", "lower", 0},  // P
	{"codec.encode_q8_us_per_frame", "us", "lower", 0},     // P

	{"checkpoint.append_ms", "ms", "lower", 0},   // P
	{"checkpoint.snapshot_ms", "ms", "lower", 0}, // P
	{"checkpoint.recover_ms", "ms", "lower", 0},  // P
	{"checkpoint.record_kb", "kB", "lower", 0},   // P

	// Wire only. round_ms_* pool RoundStat.Time (dispatch → aggregate, which
	// the server closes before it checkpoints) over the traced run's reps.
	{"transport.round_ms_p50", "ms", "lower", 0}, // R
	{"transport.round_ms_p95", "ms", "lower", 0}, // R
	// Serve wall ÷ rounds − mean RoundStat.Time: assign, eval, checkpoint.
	{"transport.outside_round_ms", "ms", "lower", 0},         // R
	{"transport.ps_busy_ms_per_round", "ms", "lower", 0},     // S
	{"transport.worker_busy_ms_per_round", "ms", "lower", 0}, // S
	// Traced wall ÷ rounds − PS spans − worker spans ÷ workers: sockets,
	// framing, goroutine hand-offs, waiting.
	{"transport.self_ms_per_round", "ms", "lower", 0}, // S
	{"transport.down_kb_per_round", "kB", "lower", 0}, // R
	{"transport.up_kb_per_round", "kB", "lower", 0},   // R

	// (traced − untraced wall) ÷ untraced at equal GOMAXPROCS; must stay
	// below 5.
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "lower", 0},

	// The untraced rep at nproc as the machine ran it: Result.Rounds ÷ raw
	// wall seconds, and the speed index of that interval (1 = the quiet
	// reference machine). Their product is what rounds_per_s reports.
	{"host.rounds_per_wall_s", "rounds/s", "higher", 0},
	{"host.speed_index", "x", "lower", 0},
}
