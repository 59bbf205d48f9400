package main

import "strings"

// metricDef names one metric the benchmark emits. The tables below are
// the single list the run emits from; BENCHMARK.json repeats the names,
// units and directions, and the schema test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// moves (per-layer metrics) is the prediction stated before measuring:
	// the end-to-end metric this one should move and on which workload,
	// and where it should not. The contract fixes BENCHMARK.json's keys,
	// so it is published in RESULTS.json, beside the latest numbers.
	moves string
}

// layer is the module a per-layer metric measures: its name's prefix.
func (d metricDef) layer() string {
	i := strings.IndexByte(d.name, '.')
	return d.name[:i]
}

const (
	mvChirp      = "lat_p50_us, allocs_per_op, cpu_us_per_op on meta_private; flat on durable_write"
	mvChirpQueue = "lat_p99_us on mixed_open; flat on the closed loops"
	mvBarrier    = "lat_p50_us, goodput_ops_s on durable_write and stage_exec; next to nothing on meta_*"
	mvExec       = "lat_p50_us on stage_exec only"
	mvAuth       = "setup_s"
	mvAdmitCPU   = "cpu_us_per_op on meta_private"
	mvAdmitQueue = "lat_p99_us, failed_frac, max_rate_ok on mixed_open; zero on the closed loops"
	mvACL        = "lat_p50_us, goodput_ops_s, allocs_per_op on meta_shared; flat on meta_private and stage_exec"
	mvVFS        = "a small share of lat_p50_us on meta_private and meta_shared"
	mvSave       = "durable.compact_pause_ms_max, and through it lat_p99_us on durable_write and mixed_open"
	mvDurable    = "goodput_ops_s, lat_p50_us, wal_bytes_per_user_byte on durable_write and stage_exec; zero on meta_*"
	mvPause      = "lat_p99_us on durable_write and mixed_open"
	mvDisk       = "nothing a code change should move: the sandbox disk's floor under lat_p50_us on the write workloads"
	mvRecover    = "recover_ms on durable_write"
	mvMustBeZero = "none: must be 0, the run is invalid otherwise"
	mvReplica    = "lat_p50_us on durable_write; flat on meta_*"
	mvCall       = "diagnostic: lat_p50_us and lat_p99_us split by client-library call, on the workloads that make it"
	mvOpen       = "diagnostic: lat_p99_us and max_rate_ok on mixed_open"
	mvLedger     = "diagnostic: the share of the mean op latency behind lat_p50_us that the spans account for"
	mvTiming     = "an end-to-end metric itself, demoted: on identical code it spreads more than 0.10 with the sandbox's disk and neighbours"
	mvEndToEnd   = "an end-to-end metric itself, zero or undefined on some workload, so the driver's contract cannot gate it"
)

// workloadNames are normative: BENCHMARK.json, the README and every
// later issue refer to the workloads by these.
var workloadNames = []string{"meta_private", "meta_shared", "durable_write", "stage_exec", "mixed_open"}

// endToEnd are the metrics a user of the system would see, measured
// with every timing wrapper and span ring off. Each is defined, and
// never zero, on every workload (for mixed_open: at the reference step).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"allocs_per_op", "count", "lower", ""},
	{"heap_inuse_mb", "MiB", "lower", ""},
}

// perLayer are the metrics of single layers (layer = module name) plus
// the driver's own diagnostics, measured in the trace-1 run: always-on
// counters (A), the traced pass (T) and probes (P). A metric that does
// not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// chirp
	{"chirp.client_submit_stall_us", "us", "lower", mvChirpQueue},
	{"chirp.client_send_us", "us", "lower", mvChirp},
	{"chirp.client_await_us", "us", "lower", mvChirp},
	{"chirp.server_lane_queue_us", "us", "lower", mvChirpQueue},
	{"chirp.server_handler_us", "us", "lower", mvChirp},
	{"chirp.server_barrier_wait_us", "us", "lower", mvBarrier},
	{"chirp.server_wal_group_us", "us", "lower", mvBarrier},
	{"chirp.server_reply_us", "us", "lower", mvChirp},
	{"chirp.wire_us", "us", "lower", mvChirp},
	{"chirp.exec_rpc_us", "us", "lower", mvExec},
	{"chirp.rpcs_per_op", "count", "lower", mvChirp},
	{"chirp.wire_bytes_per_op", "B", "lower", mvChirp},
	{"chirp.wire_writes_per_op", "count", "lower", mvChirp},
	{"chirp.wire_reads_per_op", "count", "lower", mvChirp},
	{"chirp.window_stalls_per_kop", "count", "lower", mvChirpQueue},
	{"chirp.dedupe_appends_per_op", "count", "lower", mvExec},
	{"chirp.rtt_floor_us", "us", "lower", mvChirp},
	// auth
	{"auth.dial_us", "us", "lower", mvAuth},
	// admission
	{"admission.admit_done_ns", "ns", "lower", mvAdmitCPU},
	{"admission.slot_wait_p99_us", "us", "lower", mvAdmitQueue},
	{"admission.busy_frac", "frac", "lower", mvAdmitQueue},
	{"admission.shed_frac", "frac", "lower", mvAdmitQueue},
	// acl
	{"acl.parse_e2_ns", "ns", "lower", mvACL},
	{"acl.parse_e64_ns", "ns", "lower", mvACL},
	{"acl.allows_e2_ns", "ns", "lower", mvACL},
	{"acl.allows_e64_ns", "ns", "lower", mvACL},
	// vfs
	{"vfs.stat_ns", "ns", "lower", mvVFS},
	{"vfs.readat_1k_ns", "ns", "lower", mvVFS},
	{"vfs.readdir_16_ns", "ns", "lower", mvVFS},
	{"vfs.writefile_4k_ns", "ns", "lower", mvVFS},
	{"vfs.save_ms", "ms", "lower", mvSave},
	// durable
	{"durable.file_writes_per_op", "count", "lower", mvDurable},
	{"durable.file_bytes_per_op", "B", "lower", mvDurable},
	{"durable.fsyncs_per_op", "count", "lower", mvDurable},
	{"durable.recs_per_group", "count", "higher", mvDurable},
	{"durable.shard_skew", "ratio", "lower", mvPause},
	{"durable.compactions", "count", "lower", mvPause},
	{"durable.compact_pause_ms_p50", "ms", "lower", mvPause},
	{"durable.compact_pause_ms_max", "ms", "lower", mvPause},
	{"durable.segments_end", "count", "lower", mvDurable},
	{"durable.wal_bytes_end", "B", "lower", mvDurable},
	{"durable.wal_bytes_per_user_byte", "ratio", "lower", mvEndToEnd},
	{"durable.recover_ms", "ms", "lower", mvEndToEnd},
	{"durable.recover_replayed", "count", "lower", mvRecover},
	{"durable.acked_lost", "count", "lower", mvEndToEnd},
	{"durable.degraded", "count", "lower", mvMustBeZero},
	{"durable.commit_queue_us", "us", "lower", mvDurable},
	{"durable.commit_write_fsync_us", "us", "lower", mvDurable},
	{"durable.file_write_us", "us", "lower", mvDurable},
	{"durable.file_sync_us", "us", "lower", mvDisk},
	{"durable.write_barrier_us", "us", "lower", mvDurable},
	// replica
	{"replica.groups_shipped_per_op", "count", "lower", mvReplica},
	{"replica.bytes_shipped_per_op", "B", "lower", mvReplica},
	{"replica.lag_lsn_p99", "count", "lower", mvReplica},
	{"replica.sync_timeouts", "count", "lower", mvMustBeZero},
	{"replica.follower_file_sync_us", "us", "lower", mvDisk},
	{"replica.write_acked_us", "us", "lower", mvReplica},
	{"replica.semi_sync_cost_us", "us", "lower", mvReplica},
	// core / kernel
	{"core.box_exec_us", "us", "lower", mvExec},
	// driver: the benchmark's own view, per client-library call
	{"driver.stat_p50_us", "us", "lower", mvCall}, {"driver.stat_p99_us", "us", "lower", mvCall},
	{"driver.open_p50_us", "us", "lower", mvCall}, {"driver.open_p99_us", "us", "lower", mvCall},
	{"driver.pread_p50_us", "us", "lower", mvCall}, {"driver.pread_p99_us", "us", "lower", mvCall},
	{"driver.readdir_p50_us", "us", "lower", mvCall}, {"driver.readdir_p99_us", "us", "lower", mvCall},
	{"driver.getacl_p50_us", "us", "lower", mvCall}, {"driver.getacl_p99_us", "us", "lower", mvCall},
	{"driver.putfile_4k_p50_us", "us", "lower", mvCall}, {"driver.putfile_4k_p99_us", "us", "lower", mvCall},
	{"driver.rename_p50_us", "us", "lower", mvCall}, {"driver.rename_p99_us", "us", "lower", mvCall},
	{"driver.rename_cross_p50_us", "us", "lower", mvCall}, {"driver.rename_cross_p99_us", "us", "lower", mvCall},
	{"driver.mkdir_p50_us", "us", "lower", mvCall}, {"driver.mkdir_p99_us", "us", "lower", mvCall},
	{"driver.setacl_p50_us", "us", "lower", mvCall}, {"driver.setacl_p99_us", "us", "lower", mvCall},
	{"driver.putfile_256k_p50_us", "us", "lower", mvCall}, {"driver.putfile_256k_p99_us", "us", "lower", mvCall},
	{"driver.exec_p50_us", "us", "lower", mvCall}, {"driver.exec_p99_us", "us", "lower", mvCall},
	{"driver.getfile_256k_p50_us", "us", "lower", mvCall}, {"driver.getfile_256k_p99_us", "us", "lower", mvCall},
	{"driver.lat_p999_us", "us", "lower", mvCall},
	{"driver.samples", "count", "higher", mvCall},
	{"driver.goodput_ops_s", "1/s", "higher", mvTiming},
	{"driver.lat_p50_us", "us", "lower", mvTiming},
	{"driver.lat_p99_us", "us", "lower", mvTiming},
	{"driver.cpu_us_per_op", "us", "lower", mvTiming},
	{"driver.failed_frac", "frac", "lower", mvEndToEnd},
	{"driver.max_rate_ok", "1/s", "higher", mvEndToEnd},
	{"driver.late_frac", "frac", "lower", mvOpen},
	{"driver.late_p99_us", "us", "lower", mvOpen},
	{"driver.backlog_end", "count", "lower", mvOpen},
	{"driver.lat_p99_us_r2000", "us", "lower", mvOpen},
	{"driver.lat_p99_us_r4000", "us", "lower", mvOpen},
	{"driver.lat_p99_us_r8000", "us", "lower", mvOpen},
	{"driver.lat_p99_us_r16000", "us", "lower", mvOpen},
	// ledger
	{"trace.overhead_frac", "frac", "lower", mvLedger},
	{"ledger.wire_us_per_op", "us", "lower", mvLedger},
	{"ledger.lane_queue_us_per_op", "us", "lower", mvLedger},
	{"ledger.handler_us_per_op", "us", "lower", mvLedger},
	{"ledger.barrier_wait_us_per_op", "us", "lower", mvLedger},
	{"ledger.reply_us_per_op", "us", "lower", mvLedger},
	{"ledger.explained_us_per_op", "us", "lower", mvLedger},
	{"ledger.unexplained_frac", "frac", "lower", mvLedger},
}
