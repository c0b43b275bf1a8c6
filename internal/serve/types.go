// Package serve is the campaign service layer: a durable job queue, a
// bounded worker pool running the sweep engine, a fingerprint-keyed result
// cache, and the HTTP/JSON API + typed client the wsnlinkd daemon exposes.
//
// A campaign is submitted as a CampaignSpec (parameter space + run knobs),
// identified by the same campaign fingerprint the checkpoint sidecars and
// run manifests record, and executed at most once: identical resubmissions
// are answered from the content-addressed result cache without touching the
// simulator. Results stream as NDJSON rows with index-based resume, so a
// client can reconnect mid-campaign and continue exactly where it stopped.
package serve

import (
	"fmt"
	"time"

	"wsnlink/internal/adaptive"
	"wsnlink/internal/obs"
	"wsnlink/internal/phy"
	"wsnlink/internal/scenario"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
	"wsnlink/internal/sweep"
)

// ModeAdaptive selects the adaptive explorer instead of the exhaustive
// sweep: the campaign evaluates a budgeted, surrogate-guided subset of the
// grid and its dataset holds the rows in evaluation order. The empty mode
// (or its explicit spelling "sweep") is the exhaustive default.
const ModeAdaptive = "adaptive"

// SpaceSpec is the wire form of a swept parameter space. Every omitted
// (empty) axis falls back to the corresponding Table I default, so the
// smallest valid spec is `{}` — the paper's full campaign.
type SpaceSpec struct {
	DistancesM    []float64 `json:"distances_m,omitempty"`
	TxPowers      []int     `json:"tx_powers,omitempty"`
	MaxTries      []int     `json:"max_tries,omitempty"`
	RetryDelaysS  []float64 `json:"retry_delays_s,omitempty"`
	QueueCaps     []int     `json:"queue_caps,omitempty"`
	PktIntervalsS []float64 `json:"pkt_intervals_s,omitempty"`
	PayloadsBytes []int     `json:"payloads_bytes,omitempty"`
}

// Space materializes the spec, filling omitted axes from the Table I
// defaults.
func (s SpaceSpec) Space() stack.Space {
	sp := stack.DefaultSpace()
	if len(s.DistancesM) > 0 {
		sp.DistancesM = s.DistancesM
	}
	if len(s.TxPowers) > 0 {
		sp.TxPowers = make([]phy.PowerLevel, len(s.TxPowers))
		for i, p := range s.TxPowers {
			sp.TxPowers[i] = phy.PowerLevel(p)
		}
	}
	if len(s.MaxTries) > 0 {
		sp.MaxTries = s.MaxTries
	}
	if len(s.RetryDelaysS) > 0 {
		sp.RetryDelays = s.RetryDelaysS
	}
	if len(s.QueueCaps) > 0 {
		sp.QueueCaps = s.QueueCaps
	}
	if len(s.PktIntervalsS) > 0 {
		sp.PktIntervals = s.PktIntervalsS
	}
	if len(s.PayloadsBytes) > 0 {
		sp.PayloadsBytes = s.PayloadsBytes
	}
	return sp
}

// SpaceSpecFor converts a materialized space back to its wire form (every
// axis explicit).
func SpaceSpecFor(sp stack.Space) SpaceSpec {
	powers := make([]int, len(sp.TxPowers))
	for i, p := range sp.TxPowers {
		powers[i] = int(p)
	}
	return SpaceSpec{
		DistancesM:    sp.DistancesM,
		TxPowers:      powers,
		MaxTries:      sp.MaxTries,
		RetryDelaysS:  sp.RetryDelays,
		QueueCaps:     sp.QueueCaps,
		PktIntervalsS: sp.PktIntervals,
		PayloadsBytes: sp.PayloadsBytes,
	}
}

// CampaignSpec is a campaign job submission. The identity knobs (Space,
// Packets, BaseSeed, FullDES, CRN) determine the campaign fingerprint and
// thus the cache key; the execution knobs (Workers, BatchSize, DeadlineS,
// TraceSample) only shape how the job runs.
type CampaignSpec struct {
	Space SpaceSpec `json:"space"`
	// Packets per configuration (0 = the engine default of 500).
	Packets int `json:"packets,omitempty"`
	// BaseSeed seeds the per-configuration RNGs.
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// FullDES selects the event-driven simulator instead of the default
	// Monte-Carlo fast path (mirrors wsnsweep -des).
	FullDES bool `json:"full_des,omitempty"`
	// CRN runs every configuration under the same derived seed
	// (common-random-numbers pairing; mirrors wsnsweep -crn). It changes
	// row content, so it is part of the campaign identity.
	CRN bool `json:"crn,omitempty"`
	// Scenario selects the simulator family: "link" (or empty, the
	// default), "star", "interference", "lpl" or "mobility". Non-link
	// campaigns stream the wider scenario row schema (see
	// sweep.ScenarioFieldNames) and hash into a separate fingerprint
	// namespace. Unknown names are rejected at submission.
	Scenario string `json:"scenario,omitempty"`
	// Exactly the active scenario's parameter block may be set; omitted
	// fields take the documented defaults. The blocks are part of the
	// campaign identity.
	Star         *scenario.StarParams         `json:"star,omitempty"`
	Interference *scenario.InterferenceParams `json:"interference,omitempty"`
	LPL          *scenario.LPLParams          `json:"lpl,omitempty"`
	Mobility     *scenario.MobilityParams     `json:"mobility,omitempty"`
	// Workers is the job's sweep parallelism (0 = server default; always
	// capped by the server's per-job limit).
	Workers int `json:"workers,omitempty"`
	// BatchSize is the fast-engine block size per batch-kernel call
	// (0 = engine default). Pure execution knob: it never changes rows,
	// so it is not part of the fingerprint.
	BatchSize int `json:"batch_size,omitempty"`
	// DeadlineS bounds the job's run time in seconds (0 = the server
	// default; capped by the server maximum). An expired job fails but
	// keeps its checkpoint, so resubmitting the same spec resumes it.
	DeadlineS float64 `json:"deadline_s,omitempty"`
	// TraceSample enables per-packet lifecycle tracing of every Nth
	// configuration (0 = off); the trace file lands in the daemon's data
	// directory and its path is reported in the job status.
	TraceSample int `json:"trace_sample,omitempty"`
	// Mode selects how the campaign covers the space: "" or "sweep" run
	// every configuration (normalized to ""); "adaptive" runs the budgeted
	// explorer (internal/adaptive) over the grid. Adaptive campaigns are
	// link-scenario only, force CRN on (the explorer's row-identity
	// contract), and reject sharding and trace sampling.
	Mode string `json:"mode,omitempty"`
	// Adaptive holds the exploration knobs when Mode is "adaptive" (nil
	// means all defaults); it must be absent otherwise. The normalized
	// block is part of the campaign identity.
	Adaptive *adaptive.Params `json:"adaptive,omitempty"`
	// ShardOffset/ShardCount restrict the campaign to the contiguous
	// configuration window [ShardOffset, ShardOffset+ShardCount) of the
	// space's row-major enumeration. Row i of a shard is byte-identical to
	// row ShardOffset+i of the unsharded campaign (seeds derive from the
	// global index; CRN pairs on global index 0), which is what lets a
	// coordinator split one campaign across runners and merge the streams
	// losslessly. ShardCount == 0 means the whole space and requires
	// ShardOffset == 0. Both are identity knobs: a nonzero offset enters
	// the fingerprint, so shards are content-addressed like any campaign.
	ShardOffset int `json:"shard_offset,omitempty"`
	ShardCount  int `json:"shard_count,omitempty"`
}

// Limits are the server-side guard rails applied to every submission.
type Limits struct {
	// MaxConfigs rejects spaces larger than this many configurations
	// (0 = unlimited).
	MaxConfigs int
	// MaxPackets caps Packets per configuration (0 = unlimited).
	MaxPackets int
	// MaxWorkers caps a job's sweep parallelism (0 = GOMAXPROCS).
	MaxWorkers int
	// DefaultDeadline applies when a spec sets none; MaxDeadline caps
	// what a spec may ask for (both 0 = none).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
}

// normalize validates the spec against the limits and fills the defaults
// that participate in the campaign fingerprint, so the cache key computed
// here always matches what the sweep engine stamps into the checkpoint
// sidecar.
func (c CampaignSpec) normalize(lim Limits) (CampaignSpec, stack.Space, error) {
	sp := c.Space.Space()
	if err := sp.Validate(); err != nil {
		return c, sp, err
	}
	if c.ShardOffset < 0 || c.ShardCount < 0 {
		return c, sp, fmt.Errorf("serve: negative shard window in spec")
	}
	if c.ShardCount == 0 && c.ShardOffset != 0 {
		return c, sp, fmt.Errorf("serve: shard_offset %d requires shard_count", c.ShardOffset)
	}
	// The end-of-window check is phrased subtraction-first so a hostile
	// offset+count sum cannot wrap around Size()'s MaxInt saturation.
	if c.ShardCount > 0 && (c.ShardCount > sp.Size() || c.ShardOffset > sp.Size()-c.ShardCount) {
		return c, sp, fmt.Errorf("serve: shard [%d,%d) exceeds the %d-configuration space",
			c.ShardOffset, c.ShardOffset+c.ShardCount, sp.Size())
	}
	if c.Mode == "sweep" {
		c.Mode = "" // explicit spelling of the exhaustive default
	}
	switch c.Mode {
	case "":
		if c.Adaptive != nil {
			return c, sp, fmt.Errorf("serve: adaptive block requires mode %q", ModeAdaptive)
		}
	case ModeAdaptive:
		if c.ShardCount != 0 || c.ShardOffset != 0 {
			return c, sp, fmt.Errorf("serve: adaptive campaigns cannot be sharded")
		}
		if c.TraceSample != 0 {
			return c, sp, fmt.Errorf("serve: adaptive campaigns do not support trace sampling")
		}
		// The explorer materializes the whole grid to pick from, so the
		// config limit bounds the grid itself, not just the budget.
		if lim.MaxConfigs > 0 && sp.Size() > lim.MaxConfigs {
			return c, sp, fmt.Errorf("serve: adaptive grid has %d configurations, server limit is %d",
				sp.Size(), lim.MaxConfigs)
		}
		var a adaptive.Params
		if c.Adaptive != nil {
			a = *c.Adaptive // deep copy: Normalize must not mutate the caller
		}
		if err := a.Normalize(sp.Size()); err != nil {
			return c, sp, err
		}
		c.Adaptive = &a
		// CRN pairing is the adaptive row-identity contract; force it on so
		// the stored spec says what actually runs.
		c.CRN = true
	default:
		return c, sp, fmt.Errorf("serve: unknown campaign mode %q", c.Mode)
	}
	// The config limit guards the work a job performs, so it applies to
	// the shard window, not the parent space it is cut from.
	if lim.MaxConfigs > 0 && c.configCount(sp) > lim.MaxConfigs {
		return c, sp, fmt.Errorf("serve: campaign has %d configurations, server limit is %d",
			c.configCount(sp), lim.MaxConfigs)
	}
	if c.Packets < 0 || c.TraceSample < 0 || c.Workers < 0 || c.DeadlineS < 0 {
		return c, sp, fmt.Errorf("serve: negative knob in spec")
	}
	if c.Packets == 0 {
		c.Packets = 500 // the sweep engine default; fixed here so it hashes
	}
	if lim.MaxPackets > 0 && c.Packets > lim.MaxPackets {
		return c, sp, fmt.Errorf("serve: %d packets/config exceeds server limit %d",
			c.Packets, lim.MaxPackets)
	}
	if lim.MaxWorkers > 0 && (c.Workers == 0 || c.Workers > lim.MaxWorkers) {
		c.Workers = lim.MaxWorkers
	}
	if c.DeadlineS == 0 {
		c.DeadlineS = lim.DefaultDeadline.Seconds()
	}
	if max := lim.MaxDeadline.Seconds(); max > 0 && (c.DeadlineS == 0 || c.DeadlineS > max) {
		c.DeadlineS = max
	}
	// Explicit axes make the stored spec self-describing even if the
	// Table I defaults ever change.
	c.Space = SpaceSpecFor(sp)
	// Normalize the scenario selection the same way: the stored spec
	// carries the resolved kind and a fully defaulted parameter block, so
	// the fingerprint computed here matches the engine's. Unknown kinds
	// surface as *scenario.UnknownKindError.
	scn := c.scenarioSpecRaw()
	if err := scn.Normalize(); err != nil {
		return c, sp, err
	}
	c.Scenario = string(scn.Kind)
	c.Star, c.Interference, c.LPL, c.Mobility =
		scn.Star, scn.Interference, scn.LPL, scn.Mobility
	if c.Mode == ModeAdaptive && scn.Kind != scenario.KindLink {
		return c, sp, fmt.Errorf("serve: adaptive campaigns support only the link scenario (got %q)", scn.Kind)
	}
	return c, sp, nil
}

// configCount returns the number of configurations the campaign covers:
// the adaptive budget (an upper bound — a converged exploration stops
// early), the shard window, or the whole space.
func (c CampaignSpec) configCount(sp stack.Space) int {
	if c.Mode == ModeAdaptive && c.Adaptive != nil {
		return c.Adaptive.Budget
	}
	if c.ShardCount > 0 {
		return c.ShardCount
	}
	return sp.Size()
}

// shardConfigs materializes the configurations the campaign covers, in
// global enumeration order. normalize has validated the window bounds.
// Sharded campaigns materialize only their window, so a shard job stays
// O(window) even when cut from a space far larger than the server would
// accept whole.
func (c CampaignSpec) shardConfigs(sp stack.Space) []stack.Config {
	if c.ShardCount == 0 {
		return sp.All()
	}
	return sp.Slice(c.ShardOffset, c.ShardOffset+c.ShardCount)
}

// Normalized returns the spec with every identity default made explicit —
// the form the server stores and hashes — validated against lim. The shard
// planner uses it to cut windows from an already-normalized parent spec.
func (c CampaignSpec) Normalized(lim Limits) (CampaignSpec, error) {
	norm, _, err := c.normalize(lim)
	return norm, err
}

// scenarioSpecRaw assembles the scenario selection without normalizing,
// deep-copying the parameter blocks so Normalize never mutates the
// caller's spec through the shared pointers.
func (c CampaignSpec) scenarioSpecRaw() scenario.Spec {
	s := scenario.Spec{Kind: scenario.Kind(c.Scenario)}
	if c.Star != nil {
		v := *c.Star
		s.Star = &v
	}
	if c.Interference != nil {
		v := *c.Interference
		s.Interference = &v
	}
	if c.LPL != nil {
		v := *c.LPL
		s.LPL = &v
	}
	if c.Mobility != nil {
		v := *c.Mobility
		s.Mobility = &v
	}
	return s
}

// ScenarioSpec returns the campaign's normalized scenario spec; unknown
// kinds surface as *scenario.UnknownKindError.
func (c CampaignSpec) ScenarioSpec() (scenario.Spec, error) {
	s := c.scenarioSpecRaw()
	if err := s.Normalize(); err != nil {
		return scenario.Spec{}, err
	}
	return s, nil
}

// ScenarioKind returns the campaign's scenario kind. Unvalidated or
// unknown names map to the link kind — stored specs were validated at
// submission, so this is only a rendering fallback.
func (c CampaignSpec) ScenarioKind() scenario.Kind {
	k, err := scenario.ParseKind(c.Scenario)
	if err != nil {
		return scenario.KindLink
	}
	return k
}

// fingerprint returns the campaign identity hash: the adaptive namespace
// for adaptive campaigns, otherwise sweep.Fingerprint's namespace for the
// scenario kind (link campaigns keep the legacy fingerprint, so existing
// caches, checkpoints and manifests stay valid).
func (c CampaignSpec) fingerprint(cfgs []stack.Config) (uint64, error) {
	if c.Mode == ModeAdaptive {
		return adaptive.Fingerprint(cfgs, c.adaptiveOptions()), nil
	}
	return sweep.Fingerprint(c.scenarioSpecRaw(), cfgs, c.options())
}

// options maps the spec onto engine options (checkpoint plumbing is added
// by the job runner).
func (c CampaignSpec) options() sweep.RunOptions {
	opts := sweep.RunOptions{
		Packets:     c.Packets,
		BaseSeed:    c.BaseSeed,
		CRN:         c.CRN,
		Workers:     c.Workers,
		BatchSize:   c.BatchSize,
		TraceSample: c.TraceSample,
		IndexOffset: c.ShardOffset,
	}
	if c.FullDES {
		opts.Engine = sim.EngineDES
	}
	return opts
}

// adaptiveOptions maps the spec onto explorer options (checkpoint and
// resume plumbing is added by the job runner). CRN is implied: the
// explorer always runs its inner sweeps CRN-paired.
func (c CampaignSpec) adaptiveOptions() adaptive.Options {
	o := adaptive.Options{
		Packets:   c.Packets,
		BaseSeed:  c.BaseSeed,
		Workers:   c.Workers,
		BatchSize: c.BatchSize,
	}
	if c.Adaptive != nil {
		o.Params = *c.Adaptive
	}
	if c.FullDES {
		o.Engine = sim.EngineDES
	}
	return o
}

// Fingerprint returns the campaign identity hash of a normalized spec —
// the cache key, and the value the job's checkpoint sidecar records.
func (c CampaignSpec) Fingerprint() (uint64, error) {
	norm, sp, err := c.normalize(Limits{})
	if err != nil {
		return 0, err
	}
	return norm.fingerprint(norm.shardConfigs(sp))
}

// JobState is a job's lifecycle state.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker slot (also the state a
	// drained in-flight job returns to, with its checkpoint on disk).
	StateQueued JobState = "queued"
	// StateRunning: a worker is streaming the campaign.
	StateRunning JobState = "running"
	// StateDone: the full dataset is in the result cache.
	StateDone JobState = "done"
	// StateFailed: the run errored or exceeded its deadline. The spool
	// checkpoint survives, so resubmitting the same spec resumes it.
	StateFailed JobState = "failed"
	// StateCanceled: canceled via DELETE.
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is the durable job record the store persists (one JSON file per job,
// written atomically).
type Job struct {
	ID    string       `json:"id"`
	Seq   int          `json:"seq"`
	State JobState     `json:"state"`
	Spec  CampaignSpec `json:"spec"`
	// Fingerprint is the campaign identity (16 hex digits) — the result
	// cache key, matching the checkpoint sidecar and run manifests.
	Fingerprint string `json:"fingerprint"`
	Configs     int    `json:"configs"`
	// CacheHit marks a job answered from the result cache without
	// simulating.
	CacheHit bool `json:"cache_hit,omitempty"`
	// ResumedFrom is the checkpoint prefix the latest run continued after.
	ResumedFrom int    `json:"resumed_from,omitempty"`
	Error       string `json:"error,omitempty"`
	TracePath   string `json:"trace_path,omitempty"`
	CreatedMs   int64  `json:"created_unix_ms"`
	StartedMs   int64  `json:"started_unix_ms,omitempty"`
	FinishedMs  int64  `json:"finished_unix_ms,omitempty"`
}

// JobStatus is the live view of a job: the durable record plus progress
// counters and, while the server that ran it is alive, a telemetry
// snapshot.
type JobStatus struct {
	Job
	Done    int64         `json:"done"`
	Total   int64         `json:"total"`
	Errors  int64         `json:"errors"`
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Stats are the server-level counters (also exported via expvar by the
// daemon).
type Stats struct {
	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Canceled    int64 `json:"canceled"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Queued      int64 `json:"queued"`
	Running     int64 `json:"running"`
}

// StreamedRow is one decoded row from a campaign's NDJSON stream.
type StreamedRow struct {
	// Index is the row's position in the campaign (0-based, dense).
	Index int
	// Row is the decoded dataset row (the link-schema columns, which every
	// scenario row also carries).
	Row sweep.Row
	// Scenario is the row's scenario kind for scenario campaigns, empty
	// for link campaigns streamed over the legacy schema.
	Scenario scenario.Kind
	// Net holds the scenario network columns (zero for legacy rows).
	Net scenario.NetStats
}

// ScenarioRow reassembles the full scenario row from a scenario campaign's
// streamed row.
func (r StreamedRow) ScenarioRow() scenario.Row {
	return scenario.Row{
		Scenario: r.Scenario,
		Config:   r.Row.Config,
		Seed:     r.Row.Seed,
		Packets:  r.Row.Packets,
		Report:   r.Row.Report,
		Net:      r.Net,
	}
}
