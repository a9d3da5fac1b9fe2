package service

import (
	"sort"
	"time"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/storage"
)

// CacheStats summarises one database's shared-cache effectiveness, derived
// from the executor's cumulative PipelineStats.
type CacheStats struct {
	// JoinPaths is the number of materialized join paths held: always 0,
	// nothing materializes one. bench/ reads the field (service.join_paths)
	// and a PR that claims a gain may not edit bench/; it goes when that
	// metric is retired.
	JoinPaths int
	// Pipeline is the cumulative executor counter snapshot.
	Pipeline sqlexec.PipelineStats
}

// DictStats describes one text column's dictionary: how many distinct
// strings it interns and how much memory they take.
type DictStats struct {
	Table   string
	Column  string
	Entries int
	Bytes   int64
}

// StorageStats is the columnar footprint of one registered database:
// per-table vector/dictionary memory plus each text column's dictionary,
// so operators can see what every registered database costs to hold.
type StorageStats struct {
	Rows        int   // total rows across tables
	VectorBytes int64 // typed column vectors + null bitmaps
	DictBytes   int64 // interned string dictionaries
	Tables      []storage.TableFootprint
	Dicts       []DictStats // text columns only, schema order
	// Provenance records whether the database was built in memory or
	// loaded from a durable segment store, and what the load cost.
	Provenance Provenance
}

// EpochCacheStats is one live epoch shard's serving view: which epoch and
// how many syntheses resolved it.
type EpochCacheStats struct {
	Epoch    int64
	Requests int64
}

// DBStats is the aggregated serving view of one registered database.
type DBStats struct {
	Database         string
	Requests         int64
	Errors           int64
	Candidates       int64
	Truncated        int64 // requests that returned a Truncated anytime result
	Interrupted      int64 // requests cancelled by the caller (client disconnect)
	AutocompleteSize int   // 0 until the shared index is first used
	Cache            CacheStats
	Storage          StorageStats
	P50, P95         time.Duration // over the latency window; 0 if no requests

	// Epoch visibility: the head epoch, how many Engine.Append batches the
	// database has accepted, the live/retired epoch cache shards, the
	// per-request epoch lag (head minus resolved epoch at resolution time),
	// and each live shard's cache hit rates, ascending by epoch.
	HeadEpoch     int64
	Appends       int64
	EpochsLive    int
	EpochsRetired int64
	EpochLagMax   int64
	EpochLagAvg   float64
	Epochs        []EpochCacheStats

	// CancelReturns counts cancelled or deadline-expired requests; the
	// quantiles are their cancel-to-return latency — how long after the
	// context fired the request actually returned — over the window.
	CancelReturns        int64
	CancelP50, CancelP99 time.Duration
}

// Stats is the engine-wide serving snapshot.
type Stats struct {
	// InFlight is the number of syntheses currently running.
	InFlight int64
	// Queued is the number of requests waiting for an in-flight slot.
	Queued int64
	// Admitted counts requests that acquired a slot since startup.
	Admitted int64
	// Rejected counts requests shed with ErrOverloaded.
	Rejected int64
	// Databases holds per-database aggregates in registration order.
	Databases []DBStats
}

// Stats returns an engine-wide snapshot.
func (e *Engine) Stats() Stats {
	st := Stats{
		InFlight: e.inFlight.Load(),
		Queued:   e.queued.Load(),
		Admitted: e.admitted.Load(),
		Rejected: e.rejected.Load(),
	}
	e.mu.RLock()
	states := make([]*dbState, 0, len(e.order))
	for _, name := range e.order {
		states = append(states, e.dbs[name])
	}
	e.mu.RUnlock()
	for _, ds := range states {
		st.Databases = append(st.Databases, ds.snapshot())
	}
	return st
}

func (ds *dbState) snapshot() DBStats {
	ds.m.Lock()
	out := DBStats{
		Database:      ds.db.Name,
		Requests:      ds.requests,
		Errors:        ds.errors,
		Candidates:    ds.candidates,
		Truncated:     ds.truncated,
		Interrupted:   ds.interrupted,
		CancelReturns: ds.cretTotal,
		Appends:       ds.appends,
		EpochLagMax:   ds.lagMax,
	}
	if ds.lagN > 0 {
		out.EpochLagAvg = float64(ds.lagSum) / float64(ds.lagN)
	}
	if ds.idx != nil {
		out.AutocompleteSize = ds.idx.Size()
	}
	lat := make([]time.Duration, ds.latN)
	copy(lat, ds.lat[:ds.latN])
	cret := make([]time.Duration, ds.cretN)
	copy(cret, ds.cret[:ds.cretN])
	ds.m.Unlock()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	out.P50 = percentile(lat, 0.50)
	out.P95 = percentile(lat, 0.95)
	sort.Slice(cret, func(i, j int) bool { return cret[i] < cret[j] })
	out.CancelP50 = percentile(cret, 0.50)
	out.CancelP99 = percentile(cret, 0.99)

	// Aggregate the per-epoch cache shards: cumulative pipeline counters
	// fold across retired and live shards.
	out.HeadEpoch = ds.db.Epoch()
	ds.epochMu.Lock()
	ps := ds.retired
	out.EpochsRetired = ds.retiredShards
	out.EpochsLive = len(ds.shards)
	for _, sh := range ds.shards {
		addPipeline(&ps, sh.cache.Joins().Stats())
		out.Epochs = append(out.Epochs, EpochCacheStats{Epoch: sh.epoch, Requests: sh.requests.Load()})
	}
	ds.epochMu.Unlock()
	sort.Slice(out.Epochs, func(i, j int) bool { return out.Epochs[i].Epoch < out.Epochs[j].Epoch })
	out.Cache = CacheStats{Pipeline: ps}
	// Footprint is measured on a frozen snapshot so the scan cannot race
	// concurrent ingest (and reflects the published head, matching what
	// requests actually observe).
	out.Storage = storageStats(ds.db.Snapshot())
	out.Storage.Provenance = ds.prov
	return out
}

// addPipeline folds one shard's cumulative pipeline counters into a total.
func addPipeline(a *sqlexec.PipelineStats, b sqlexec.PipelineStats) {
	a.StreamedExists += b.StreamedExists
	a.IndexSeeds += b.IndexSeeds
	a.IndexProbes += b.IndexProbes
}

// storageStats snapshots the database's columnar footprint.
func storageStats(db *storage.Database) StorageStats {
	st := StorageStats{Tables: db.Footprint()}
	for _, tf := range st.Tables {
		st.Rows += tf.Rows
		st.VectorBytes += tf.VectorBytes
		st.DictBytes += tf.DictBytes
		for _, cf := range tf.Columns {
			if cf.DictEntries == 0 && cf.DictBytes == 0 {
				continue
			}
			st.Dicts = append(st.Dicts, DictStats{
				Table:   tf.Table,
				Column:  cf.Column,
				Entries: cf.DictEntries,
				Bytes:   cf.DictBytes,
			})
		}
	}
	return st
}

// percentile returns the nearest-rank q-quantile of an ascending slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
