package server

import "repro/internal/telemetry"

// Service metrics, registered on the process-wide telemetry registry so the
// daemon's /metrics endpoint covers the service for free, alongside the
// core/omp/mpi hot-path counters. All recording is gated by
// telemetry.Enabled() and never touches accumulator state.
var (
	mRequests = telemetry.NewCounter("server_requests_total",
		"HTTP requests handled by the summation service (all endpoints).")
	mFrames = telemetry.NewCounter("server_frames_total",
		"Ingest frames accepted and folded into every active replica.")
	mValues = telemetry.NewCounter("server_values_total",
		"Float64 values accepted through ingest frames.")
	mBadFrames = telemetry.NewCounter("server_bad_frames_total",
		"Ingest frames rejected for structural reasons: truncation, checksum mismatch, bad type, oversize, non-finite values, or parameter mismatch.")
	mRejectedAdds = telemetry.NewCounter("server_rejected_adds_total",
		"Frames refused with 429 because no shard of the admission replica came free within the enqueue wait (backpressure).")
	mDrainLatency = telemetry.NewHistogram("server_drain_latency_seconds",
		"Time from an ingest asking one replica for a shard to that replica's fold finishing: shard wait plus fold.",
		telemetry.DurationBuckets())
	mAccumulators = telemetry.NewGauge("server_accumulators",
		"Named accumulators currently registered.")
	mSnapshots = telemetry.NewCounter("server_snapshots_total",
		"Snapshot files written (graceful shutdowns or explicit saves).")
	mRestores = telemetry.NewCounter("server_restores_total",
		"Accumulators restored from a snapshot file at startup.")
	mCertReads = telemetry.NewCounter("server_certified_reads_total",
		"Reads served through the k-of-n certification path (including 503 divergence rejections).")
	mReplicaDivergence = telemetry.NewCounter("server_replica_divergence_total",
		"Replica state reports that disagreed with the quorum at a certification cut (one per divergent replica, plus one per failed-quorum cut).")
	mReseeds = telemetry.NewCounter("server_replica_reseeds_total",
		"Divergent replicas repaired by a synchronous reseed from the agreed state (first strike).")
	mQuarantines = telemetry.NewCounter("server_replica_quarantines_total",
		"Replicas quarantined permanently after diverging again post-reseed (second strike).")
	mAuditRecords = telemetry.NewCounter("server_audit_records_total",
		"Hash-linked audit records appended (periodic and shutdown snapshots).")
	mJournalFrames = telemetry.NewCounter("server_journal_frames_total",
		"Accepted ingest frames recorded in the audit frame journal.")
)
