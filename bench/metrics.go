package main

// metricDef describes one reported metric. /BENCHMARK.json lists exactly
// these (TestBenchmarkJSON writes it and keeps the two in step); moves
// records, before anything is optimised, which end-to-end metric a layer
// metric is expected to move and on which workload.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
	moves  string  // per-layer only
}

// endToEndMetrics are reported by the untraced pass of every workload.
var endToEndMetrics = []metricDef{
	{name: "commit_p50_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "commit_p90_ms", unit: "ms", better: "lower", bound: 0.15},
	{name: "delivered_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	movesCPU       = "itself: what one delivered proposal costs. Not end-to-end because on this host it does not repeat (spread 10-15 %, +-30 % within the hour); on hub3_saturate it shows as delivered_per_s"
	movesTransport = "cpu_us_per_delivered on udp5_* (syscall time); nearly nothing on hub3_*"
	movesWire      = "cpu_us_per_delivered on udp5_durable (1 KiB frames) and hub3_saturate (frame rate); no effect expected on commit_*"
	movesNode      = "delivered_per_s and cpu_us_per_delivered on hub3_saturate; once handler_busy_share nears 1, commit_p90_ms everywhere"
	movesEngine    = "delivered_per_s on hub3_saturate only"
	movesRuntime   = "cpu_us_per_delivered everywhere (allocation and GC work), most on hub3_saturate; unlike CPU time these counts barely depend on the host's speed"
	movesMember    = "commit_p50_ms/commit_p90_ms on hub3_paced (the decision interval sets them); view_install_p50_ms/outage_p50_ms on udp5_crash; failed_share everywhere"
	movesBroadcast = "cpu_us_per_delivered and delivered_per_s on hub3_saturate (depth ~70), less on hub3_paced (depth ~20); purged_share -> failed_share on udp5_crash"
	movesDurable   = "commit_p50_ms and cpu_us_per_delivered on udp5_durable only (WAL append, replay); rejoin_p50_ms is volatile and must not move"
	movesFsync     = "no gated metric: udp5_durable runs Fsync none, so these count only the fsync at each 1 MiB segment rotation; a slow one stalls the event loop and shows as member.unforced_view_changes and failed"
	movesFault     = "udp5_crash only: end-to-end for that workload, listed per-layer because the other workloads have no value for it"
	movesHarness   = "none: says how far the open-loop pacer or the fault injection disturbed the measurement"
)

// perLayerMetrics are reported by the traced pass. A metric a workload
// does not exercise (durable.* on a volatile group, view_install_p50_ms
// without crashes) reads 0 there.
var perLayerMetrics = []metricDef{
	{name: "cpu_us_per_delivered", unit: "us", better: "lower", moves: movesCPU},

	{name: "transport.datagrams_per_delivered", unit: "count", better: "lower", moves: movesTransport},
	{name: "transport.bytes_per_delivered", unit: "B", better: "lower", moves: movesTransport},
	{name: "transport.send_calls_per_delivered", unit: "count", better: "lower", moves: movesTransport},
	{name: "transport.send_us_per_delivered", unit: "us", better: "lower", moves: movesTransport},
	{name: "transport.send_errors", unit: "count", better: "lower", moves: movesTransport},

	{name: "wire.frames_per_datagram", unit: "count", better: "higher", moves: movesWire},
	{name: "wire.decisions_per_delivered", unit: "count", better: "lower", moves: movesWire},
	{name: "wire.repair_frames_per_delivered", unit: "count", better: "lower", moves: movesWire},
	{name: "wire.decode_ns_per_frame", unit: "ns", better: "lower", moves: movesWire},
	{name: "wire.encode_ns_per_frame", unit: "ns", better: "lower", moves: movesWire},
	{name: "wire.decode_us_per_delivered", unit: "us", better: "lower", moves: movesWire},

	{name: "node.recv_us_per_delivered", unit: "us", better: "lower", moves: movesNode},
	{name: "node.handler_busy_us_per_delivered", unit: "us", better: "lower", moves: movesNode},
	{name: "node.events_per_delivered", unit: "count", better: "lower", moves: movesNode},
	{name: "node.handler_busy_share", unit: "share", better: "lower", moves: movesNode},
	{name: "node.propose_wait_p50_us", unit: "us", better: "lower", moves: movesNode},
	{name: "node.propose_wait_p99_us", unit: "us", better: "lower", moves: movesNode},
	{name: "node.timer_late_mean_us", unit: "us", better: "lower", moves: movesNode},
	{name: "node.queue_drops", unit: "count", better: "lower", moves: movesNode},
	{name: "node.recv_drops", unit: "count", better: "lower", moves: movesNode},
	{name: "node.commit_p99_ms", unit: "ms", better: "lower", moves: movesNode},
	{name: "node.commit_p999_ms", unit: "ms", better: "lower", moves: movesNode},

	{name: "engine.post_handle_ns", unit: "ns", better: "lower", moves: movesEngine},

	{name: "runtime.allocs_per_delivered", unit: "count", better: "lower", moves: movesRuntime},
	{name: "runtime.alloc_bytes_per_delivered", unit: "B", better: "lower", moves: movesRuntime},

	{name: "member.decisions_per_s", unit: "1/s", better: "lower", moves: movesMember},
	{name: "member.delivered_per_decision", unit: "count", better: "higher", moves: movesMember},
	{name: "member.wrong_suspicions", unit: "count", better: "lower", moves: movesMember},
	{name: "member.unforced_view_changes", unit: "count", better: "lower", moves: movesMember},
	{name: "member.single_elections", unit: "count", better: "lower", moves: movesMember},
	{name: "member.reconfig_elections", unit: "count", better: "lower", moves: movesMember},
	{name: "member.election_mean_ms", unit: "ms", better: "lower", moves: movesMember},

	{name: "broadcast.inflight_mean", unit: "count", better: "lower", moves: movesBroadcast},
	{name: "broadcast.retransmits_per_delivered", unit: "count", better: "lower", moves: movesBroadcast},
	{name: "broadcast.purged_share", unit: "share", better: "lower", moves: movesBroadcast},
	{name: "broadcast.fast_share", unit: "share", better: "higher", moves: movesBroadcast},
	{name: "broadcast.spread_p50_ms", unit: "ms", better: "lower", moves: movesBroadcast},
	{name: "broadcast.commit_p50_ms.total_strong", unit: "ms", better: "lower", moves: movesBroadcast},
	{name: "broadcast.commit_p50_ms.unordered_weak", unit: "ms", better: "lower", moves: movesBroadcast},
	{name: "broadcast.commit_p50_ms.time_strict", unit: "ms", better: "lower", moves: movesBroadcast},
	{name: "broadcast.on_proposal_us", unit: "us", better: "lower", moves: movesBroadcast},
	{name: "broadcast.adopt_decision_us", unit: "us", better: "lower", moves: movesBroadcast},
	{name: "broadcast.build_decision_us", unit: "us", better: "lower", moves: movesBroadcast},
	{name: "oal.merge_acks_us", unit: "us", better: "lower", moves: movesBroadcast},

	{name: "durable.fsyncs_per_delivered", unit: "count", better: "lower", moves: movesFsync},
	{name: "durable.fsync_mean_us", unit: "us", better: "lower", moves: movesFsync},
	{name: "durable.append_us", unit: "us", better: "lower", moves: movesDurable},
	{name: "durable.bytes_per_delivered", unit: "B", better: "lower", moves: movesDurable},
	{name: "durable.recover_ms", unit: "ms", better: "lower", moves: movesDurable},
	{name: "durable.recovered_share", unit: "share", better: "higher", moves: movesDurable},

	{name: "failed_share", unit: "share", better: "lower", moves: "every workload: (refused + lost + late) / attempted; 0 on the seed"},
	{name: "view_install_p50_ms", unit: "ms", better: "lower", moves: movesFault},
	{name: "rejoin_p50_ms", unit: "ms", better: "lower", moves: movesFault},
	{name: "outage_p50_ms", unit: "ms", better: "lower", moves: movesFault},

	{name: "gen.late_p99_us", unit: "us", better: "lower", moves: movesHarness},
	{name: "gen.orphaned", unit: "count", better: "lower", moves: movesHarness},
}

// interactionNotes are printed with the moves table at the end of a full
// set and recorded in README.md.
var interactionNotes = []string{
	"hub3_paced latency is timer-bound: a faster layer saves at most its share of ~0.5 ms of CPU out of ~80 ms.",
	"On hub3_saturate the core the three event loops share is the scarce resource: freeing it raises delivered_per_s by more than the layer's own share, and latency rises before throughput stops rising.",
	"Strict waits for the slowest of N members, so broadcast.commit_p50_ms.time_strict tracks the tail of broadcast.spread_p50_ms.",
	"Batching lowers transport.*_per_delivered and delays the first frame of each batch (commit_p50_ms).",
	"adapt, guard, surveil, fabric and rsm are off in the default Config and deliberately not measured; when one becomes unconditional it is measured through these same workloads.",
}
