package server

// Metric definitions for the HTTP service. Everything the search
// already knows about its own effort (core.Stats — the quantities
// behind Figure 7 of the paper) is aggregated here across queries, so
// a fleet of pathserve processes can be scraped and a hot-path
// regression shows up as a slope change rather than an anecdote.

import (
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/obs"
)

// metrics holds every service-level metric, registered on one
// obs.Registry (exposed at GET /metrics).
type metrics struct {
	// Search effort, aggregated from core.Stats per completed query.
	searches      *obs.Counter
	searchCalls   *obs.Counter
	searchOffers  *obs.Counter
	prunedBestT   *obs.Counter
	prunedBestU   *obs.Counter
	cautionSaves  *obs.Counter
	exhausted     *obs.Counter
	truncated     *obs.Counter
	completions   *obs.Counter
	searchSeconds *obs.Histogram

	// Completion memo cache.
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheSize      *obs.Gauge
	cacheBytes     *obs.Gauge

	// Multi-schema registry: per-schema labeled families (cardinality
	// bounded by schemaLG; overflow collapses to obs.OverflowLabel),
	// reload outcomes, snapshot lifecycle, and shard invalidation.
	schemaLG           *obs.LabelGuard
	schemaSearches     *obs.CounterVec
	schemaCacheHits    *obs.CounterVec
	schemaCacheMisses  *obs.CounterVec
	schemaGeneration   *obs.GaugeVec
	snapshotsLive      *obs.Gauge
	reloads            *obs.Counter
	reloadFailures     *obs.Counter
	cacheInvalidations *obs.Counter
	unknownSchema      *obs.Counter

	// Robustness: admission control, deadlines, panic isolation,
	// singleflight, and response-encode failures.
	inflight           *obs.Gauge
	sheds              *obs.Counter
	timeouts           *obs.Counter
	canceled           *obs.Counter
	panicsRecovered    *obs.Counter
	singleflightShared *obs.Counter
	encodeFailures     *obs.Counter

	// Materialized all-pairs closure: serving outcomes, build
	// lifecycle, and the shared byte budget.
	closureHits         *obs.Counter
	closureMisses       *obs.Counter
	closureFallbacks    *obs.Counter
	closureBuilds       *obs.CounterVec
	closureBuildSeconds *obs.Histogram
	closureBytes        *obs.Gauge

	// Durable snapshot persistence: save/restore lifecycle of the
	// crash-safe on-disk state (internal/persist). The counters are
	// scrape-synced from the store's own Stats, so events that fired
	// before the observer was attached (boot-time restores) are never
	// undercounted.
	persistSaves          *obs.Counter
	persistSaveFailures   *obs.Counter
	persistSavesSkipped   *obs.Counter
	persistRestores       *obs.Counter
	persistRecompiles     *obs.Counter
	persistQuarantines    *obs.Counter
	persistSaveSeconds    *obs.Histogram
	persistRestoreSeconds *obs.Histogram

	// Interactive keystroke sessions (/v1/sessions): lifecycle, frame
	// traffic, and per-schema attribution.
	sessionsOpen     *obs.Gauge
	sessionsTotal    *obs.Counter
	sessionsRejected *obs.Counter
	sessionUpdates   *obs.Counter
	sessionBatches   *obs.Counter
	sessionFinals    *obs.Counter
	sessionSkipped   *obs.Counter
	sessionRebinds   *obs.Counter
	sessionErrors    *obs.CounterVec
	schemaSessions   *obs.CounterVec
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		searches: reg.Counter("pathcomplete_searches_total",
			"Completion searches executed (cache misses and traced queries)."),
		searchCalls: reg.Counter("pathcomplete_search_traverse_calls_total",
			"Recursive traverse calls across all searches (the paper's Figure 7 cost metric)."),
		searchOffers: reg.Counter("pathcomplete_search_offers_total",
			"Complete consistent paths offered to update() across all searches."),
		prunedBestT: reg.Counter("pathcomplete_search_pruned_bestt_total",
			"Children pruned by the best[T] bound (Algorithm 2 line 9)."),
		prunedBestU: reg.Counter("pathcomplete_search_pruned_bestu_total",
			"Children pruned by the per-node best[u] test (Algorithm 2 lines 10-11)."),
		cautionSaves: reg.Counter("pathcomplete_search_caution_saves_total",
			"Children that failed best[u] but were explored due to a caution-set intersection (Section 4.1)."),
		exhausted: reg.Counter("pathcomplete_search_exhausted_total",
			"Searches stopped early by the MaxCalls budget."),
		truncated: reg.Counter("pathcomplete_search_truncated_total",
			"Searches whose answer set was truncated by MaxPaths."),
		completions: reg.Counter("pathcomplete_search_completions_total",
			"Optimal completions returned across all searches."),
		searchSeconds: reg.Histogram("pathcomplete_search_duration_seconds",
			"Wall-clock latency of one completion search.", obs.DefBuckets()),
		cacheHits: reg.Counter("pathcomplete_cache_hits_total",
			"Completion requests answered from the memo cache."),
		cacheMisses: reg.Counter("pathcomplete_cache_misses_total",
			"Completion requests that ran a fresh search."),
		cacheEvictions: reg.Counter("pathcomplete_cache_evictions_total",
			"Memo cache entries evicted by the LRU size bound."),
		cacheSize: reg.Gauge("pathcomplete_cache_entries",
			"Memo cache entries currently resident."),
		cacheBytes: reg.Gauge("pathcomplete_cache_bytes",
			"Estimated resident bytes of cached completion results across all schema shards."),
		schemaLG: obs.NewLabelGuard(obs.DefaultLabelCap),
		schemaSearches: reg.CounterVec("pathcomplete_schema_searches_total",
			"Completion searches executed, by schema (bounded cardinality; overflow collapses to _other).", "schema"),
		schemaCacheHits: reg.CounterVec("pathcomplete_schema_cache_hits_total",
			"Memo cache hits, by schema.", "schema"),
		schemaCacheMisses: reg.CounterVec("pathcomplete_schema_cache_misses_total",
			"Memo cache misses, by schema.", "schema"),
		schemaGeneration: reg.GaugeVec("pathcomplete_schema_generation",
			"Registry generation currently served, by schema.", "schema"),
		snapshotsLive: reg.Gauge("pathcomplete_snapshots_live",
			"Schema snapshots created and not yet drained (served + still referenced by in-flight requests)."),
		reloads: reg.Counter("pathcomplete_schema_reloads_total",
			"Successful registry reloads (atomic table swaps)."),
		reloadFailures: reg.Counter("pathcomplete_schema_reload_failures_total",
			"Registry reloads that failed and left the previous generation serving."),
		cacheInvalidations: reg.Counter("pathcomplete_cache_invalidations_total",
			"Memo cache entries dropped because their schema generation was superseded by a reload."),
		unknownSchema: reg.Counter("pathcomplete_unknown_schema_total",
			"Requests naming a schema the registry does not serve (answered 404)."),
		inflight: reg.Gauge("pathcomplete_admission_inflight",
			"Search requests currently holding an admission slot."),
		sheds: reg.Counter("pathcomplete_admission_sheds_total",
			"Search requests shed with 429 because the admission queue was full."),
		timeouts: reg.Counter("pathcomplete_request_timeouts_total",
			"Requests whose deadline expired (search stopped at its best-so-far answer, or the admission wait ended)."),
		canceled: reg.Counter("pathcomplete_request_canceled_total",
			"Searches stopped early because the request context was canceled (client gone)."),
		panicsRecovered: reg.Counter("pathcomplete_panics_recovered_total",
			"Handler panics caught by the recovery middleware (answered 500, process kept serving)."),
		singleflightShared: reg.Counter("pathcomplete_singleflight_shared_total",
			"Completion requests that shared a concurrent identical search instead of running their own."),
		encodeFailures: reg.Counter("pathcomplete_json_encode_failures_total",
			"Response bodies whose JSON encoding failed (logged with request ID, not silently dropped)."),
		closureHits: reg.Counter("pathcomplete_closure_hits_total",
			"Completion requests answered from the materialized all-pairs closure index."),
		closureMisses: reg.Counter("pathcomplete_closure_misses_total",
			"Closure-eligible requests that fell back to the search kernel (index building, disabled, or missing the cell)."),
		closureFallbacks: reg.Counter("pathcomplete_closure_fallbacks_total",
			"Completion requests ineligible for the closure by shape (multi-gap, E override, trace, or per-request budget)."),
		closureBuilds: reg.CounterVec("pathcomplete_closure_builds_total",
			"Background closure builds finished, by outcome (ready, budget, canceled, error).", "outcome"),
		closureBuildSeconds: reg.Histogram("pathcomplete_closure_build_seconds",
			"Wall-clock duration of one all-pairs closure build.", obs.DefBuckets()),
		closureBytes: reg.Gauge("pathcomplete_closure_bytes",
			"Bytes reserved against the closure budget across live indexes and in-progress builds."),
		persistSaves: reg.Counter("pathcomplete_persist_saves_total",
			"Snapshot files durably written (temp file + fsync + atomic rename)."),
		persistSaveFailures: reg.Counter("pathcomplete_persist_save_failures_total",
			"Snapshot writes that failed; the previous durable file, if any, is intact."),
		persistSavesSkipped: reg.Counter("pathcomplete_persist_saves_skipped_total",
			"Saves dropped by the generation gate (a background persist lost the race against a newer reload)."),
		persistRestores: reg.Counter("pathcomplete_persist_restores_total",
			"Closure indexes restored from a durable snapshot instead of rebuilt."),
		persistRecompiles: reg.Counter("pathcomplete_persist_recompiles_total",
			"Cold starts that fell back to SDL recompilation (missing, stale, or corrupt durable state)."),
		persistQuarantines: reg.Counter("pathcomplete_persist_quarantines_total",
			"Durable files moved to quarantine because they failed checksum, version, or schema validation."),
		persistSaveSeconds: reg.Histogram("pathcomplete_persist_save_duration_seconds",
			"Wall-clock duration of one durable snapshot write.", obs.DefBuckets()),
		persistRestoreSeconds: reg.Histogram("pathcomplete_persist_restore_duration_seconds",
			"Wall-clock duration of one verified restore from disk.", obs.DefBuckets()),
		sessionsOpen: reg.Gauge("pathcomplete_sessions_open",
			"Interactive WebSocket sessions currently open."),
		sessionsTotal: reg.Counter("pathcomplete_sessions_total",
			"Interactive WebSocket sessions accepted over the process lifetime."),
		sessionsRejected: reg.Counter("pathcomplete_sessions_rejected_total",
			"Session connects refused with 429 by the MaxSessions cap."),
		sessionUpdates: reg.Counter("pathcomplete_session_updates_total",
			"Keystroke update frames accepted across all sessions."),
		sessionBatches: reg.Counter("pathcomplete_session_batches_total",
			"Per-anchor candidate batch frames streamed across all sessions."),
		sessionFinals: reg.Counter("pathcomplete_session_finals_total",
			"Updates answered with a final merged frame."),
		sessionSkipped: reg.Counter("pathcomplete_session_skipped_total",
			"Updates superseded by a newer keystroke before a final answer."),
		sessionRebinds: reg.Counter("pathcomplete_session_rebinds_total",
			"Sessions rebound to a new snapshot generation after a reload."),
		sessionErrors: reg.CounterVec("pathcomplete_session_errors_total",
			"Error frames sent to session clients, by protocol error code.", "code"),
		schemaSessions: reg.CounterVec("pathcomplete_schema_sessions_total",
			"Interactive sessions accepted, by schema.", "schema"),
	}
}

// schemaLabel bounds a schema name for use as a metric label value:
// the first obs.DefaultLabelCap distinct names pass through, the rest
// collapse to obs.OverflowLabel so a hostile or churning schema
// directory cannot mint unbounded time series.
func (m *metrics) schemaLabel(name string) string { return m.schemaLG.Bound(name) }

// observeSearch folds one completed search into the aggregates.
// traceID, when non-empty, annotates the latency histogram bucket
// with an OpenMetrics exemplar referencing the retained trace.
func (m *metrics) observeSearch(res *core.Result, elapsed time.Duration, traceID string) {
	m.searches.Inc()
	m.searchCalls.Add(uint64(res.Stats.Calls))
	m.searchOffers.Add(uint64(res.Stats.Offers))
	m.prunedBestT.Add(uint64(res.Stats.PrunedBestT))
	m.prunedBestU.Add(uint64(res.Stats.PrunedBestU))
	m.cautionSaves.Add(uint64(res.Stats.CautionSaves))
	m.completions.Add(uint64(len(res.Completions)))
	if res.StopReason == core.StopMaxCalls {
		m.exhausted.Inc()
	}
	if res.Truncated {
		m.truncated.Inc()
	}
	m.searchSeconds.ObserveExemplar(elapsed.Seconds(), traceID)
}
