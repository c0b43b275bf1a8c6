package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"

	"wsnlink/internal/channel"
	"wsnlink/internal/mac"
	"wsnlink/internal/obs"
	"wsnlink/internal/phy"
	"wsnlink/internal/stack"
)

// EngineKind selects how a link run charges the CSMA-CA backoff. Both
// engines drive the same Sender step through the same single-server-queue
// recurrence. The zero value, the Monte-Carlo fast path, is the campaign
// default; EngineDES keeps per-packet timing fidelity.
type EngineKind int

const (
	// EngineFast is the Monte-Carlo fast path (single-server-queue
	// recurrence, mean backoff): statistically equivalent loss behaviour
	// at campaign throughput. The default.
	EngineFast EngineKind = iota
	// EngineDES is the recurrence with the backoff sampled per attempt
	// (the discrete-event timeline of the TinyOS stack).
	EngineDES
)

// String implements fmt.Stringer.
func (e EngineKind) String() string {
	switch e {
	case EngineFast:
		return "fast"
	case EngineDES:
		return "des"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(e))
	}
}

// Simulate is the unified entry point: it runs one configuration on the
// engine opts.Engine selects (default EngineFast), honoring ctx between
// packets. Use RunContext/RunFastContext to address an engine explicitly.
func Simulate(ctx context.Context, cfg stack.Config, opts Options) (Result, error) {
	return runLane(ctx, cfg, opts, opts.Engine)
}

// DeriveSeed returns the deterministic per-configuration seed a campaign
// assigns to index idx under a base seed (SplitMix64 of the index mixed with
// the base). The sweep engine, RunBatch and the validation harness all share
// this derivation, which is what makes seed-paired runs line up.
func DeriveSeed(base uint64, idx int) uint64 {
	z := base + uint64(idx)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// BatchOptions configures RunBatch.
type BatchOptions struct {
	// Packets per configuration (default 4500, as Options).
	Packets int
	// Seeds, when non-nil, gives configuration i its seed explicitly and
	// must have one entry per configuration. When nil, configuration i
	// runs under DeriveSeed(BaseSeed, i).
	Seeds []uint64
	// BaseSeed derives per-configuration seeds when Seeds is nil.
	BaseSeed uint64
	// Channel overrides the hallway parameters.
	Channel *channel.Params
	// ErrorModel overrides the paper-calibrated CC2420 model.
	ErrorModel phy.ErrorModel
	// RecordPackets keeps the full per-packet log in each Result. The log
	// is freshly allocated per configuration (it is handed to the caller),
	// so batches that need zero steady-state allocations must leave this
	// off.
	RecordPackets bool
	// Obs, if non-nil, receives pipeline telemetry, exactly as
	// Options.Obs.
	Obs *obs.Metrics
	// TraceFor, if non-nil, supplies the lifecycle-trace span for
	// configuration i (nil span = untraced). The sweep engine uses it to
	// keep span IDs identical across batch sizes.
	TraceFor func(i int) *obs.SpanContext
	// Arena, if non-nil, supplies reusable per-lane state (RNGs, channel
	// links, scratch buffers, result storage) so steady-state batches
	// allocate nothing. A nil Arena uses a temporary one. The returned
	// results are backed by the arena and remain valid until its next
	// RunBatch call.
	Arena *BatchArena
}

// BatchArena holds the reusable state of a batch-kernel caller — typically
// one arena per sweep worker. It grows to the largest batch it has served
// and thereafter RunBatch performs zero steady-state allocations. An arena
// is not safe for concurrent use.
type BatchArena struct {
	lanes   []*lane
	results []Result
}

// NewBatchArena returns an empty arena; it grows on first use.
func NewBatchArena() *BatchArena { return &BatchArena{} }

// lane is the per-configuration slot of a BatchArena: one Sender (RNG,
// channel link, counters) and the queue's scratch state, all reused across
// configurations so the steady state allocates nothing. Long-lived
// resources (the PCG source, the Rand wrapper, the Link) are built once per
// slot; reset reseeds and re-derives everything else in place.
type lane struct {
	Sender

	packets   int
	saturated bool
	lastEnd   float64
	rec       PacketRecord

	departures []float64
	records    []PacketRecord

	recordPackets bool
	obs           *obs.Metrics     // optional telemetry sink (nil = disabled)
	stages        obs.SimStages    // per-packet stage totals, published to obs per run
	trace         *obs.SpanContext // optional lifecycle tracer (nil = disabled)
}

// lane returns slot i, growing the arena if needed.
func (a *BatchArena) lane(i int) *lane {
	for len(a.lanes) <= i {
		l := &lane{}
		l.rng = rand.New(&l.src)
		a.lanes = append(a.lanes, l)
	}
	return a.lanes[i]
}

// reset re-arms the lane for one configuration on the given engine.
func (l *lane) reset(cfg stack.Config, seed uint64, engine EngineKind, packets int,
	params *channel.Params, em phy.ErrorModel, recordPackets bool,
	ob *obs.Metrics, tr *obs.SpanContext) error {
	if err := l.Sender.reset(cfg, seed, params, em, engine == EngineDES); err != nil {
		return err
	}
	l.obs = ob
	l.trace = tr
	l.packets = packets
	l.saturated = cfg.Saturated()
	l.lastEnd = 0
	l.departures = l.departures[:0]
	l.records = nil
	l.recordPackets = recordPackets
	return nil
}

// run executes the single-server-queue recurrence for the lane's
// configuration. It is the kernel every link entry point drives (RunBatch
// over many lanes, RunContext and RunFastContext over one); see RunFast
// for the model it implements.
//
// The per-packet path touches only lane state: stage telemetry collects in
// l.stages and reaches the shared Metrics once per run, and cancellation is
// polled through ctx's Done channel rather than its locked Err.
func (l *lane) run(ctx context.Context) (Result, error) {
	// departures holds service-end times of accepted, not-yet-finished
	// packets (in service + waiting), oldest first.
	departures := l.departures
	serverFreeAt := 0.0
	done := ctx.Done()

	for i := 0; i < l.packets; i++ {
		if err := Canceled(ctx, done); err != nil {
			l.departures = departures
			l.obs.AddSimStages(&l.stages)
			return Result{}, fmt.Errorf("sim: run canceled before packet %d of %d: %w",
				i, l.packets, err)
		}
		arrival := float64(i) * l.cfg.PktInterval
		if l.saturated {
			arrival = serverFreeAt
		}
		// Retire departures that completed by this arrival.
		live := 0
		for _, d := range departures {
			if d > arrival {
				departures[live] = d
				live++
			}
		}
		departures = departures[:live]

		rec := &l.rec
		*rec = PacketRecord{ID: i, GenTime: arrival}
		waiting := len(departures)
		if waiting > 0 {
			waiting-- // oldest one is in service, not waiting
		}
		l.Arrive(rec, waiting)
		if l.obs != nil {
			l.stages.Add(obs.StageGenerator, 0)
		}
		if l.trace != nil {
			l.trace.Emit(obs.EvEnqueue, arrival, rec.ID, 0, 0, 0, 0)
		}

		if len(departures) > 0 && waiting >= l.cfg.QueueCap {
			l.Drop(rec, arrival)
			if l.trace != nil {
				l.trace.Emit(obs.EvQueueDrop, arrival, rec.ID, 0, 0, 0, 0)
			}
			l.finish(rec)
			continue
		}

		start := arrival
		if serverFreeAt > start {
			start = serverFreeAt
		}
		end := l.serve(rec, start)
		serverFreeAt = end
		departures = append(departures, end)
		l.finish(rec)
	}
	l.departures = departures

	if l.obs != nil {
		l.obs.AddPackets(int64(l.Counters.Generated))
		l.obs.AddSimStages(&l.stages)
	}
	res := Result{
		Config:   l.cfg,
		Duration: l.lastEnd,
		Counters: l.Counters,
		Records:  l.records,
	}
	l.records = nil // ownership moves to the caller
	return res, nil
}

// serve walks one packet through the attempt sequence from start and
// returns its service-end time, emitting the lifecycle events and stage
// times the step itself does not.
func (l *lane) serve(rec *PacketRecord, start float64) float64 {
	t := l.Begin(rec, start)
	for try := 1; try <= l.cfg.MaxTries; try++ {
		t = l.Retry(try, t)
		if l.trace != nil {
			l.trace.Emit(obs.EvBackoff, t, rec.ID, try, 0, 0, 0)
		}
		t = l.Backoff(t)
		_, snr := l.Sample(rec, try, t)
		if l.trace != nil {
			l.trace.Emit(obs.EvCCA, t, rec.ID, try, 0, 0, 0)
			l.trace.Emit(obs.EvTxAttempt, t, rec.ID, try, snr, rec.RSSI, rec.LQI)
		}
		t = l.Transmit(rec, try, t)
		out, end := l.Receive(rec, try, snr, t)
		if l.trace != nil {
			if out != Lost {
				l.trace.Emit(obs.EvRxDecode, t, rec.ID, try, 0, 0, 0)
			}
			if out != Acked {
				l.trace.Emit(obs.EvAckTimeout, end, rec.ID, try, 0, 0, 0)
			}
		}
		t = end
		if out == Acked {
			break
		}
	}
	l.Complete(rec, t)
	if l.trace != nil {
		kind := obs.EvLost
		if rec.Delivered {
			kind = obs.EvDelivered
		}
		l.trace.Emit(kind, t, rec.ID, rec.Tries, 0, 0, 0)
	}
	if l.obs != nil {
		recordPacketStages(&l.stages, rec, t, l.frameTime)
	}
	return t
}

// recordPacketStages splits one serviced packet's simulated timeline into
// the pipeline stages: queue wait, on-air frame time (channel), receive
// listening (ACK + ACK-wait), and the CSMA-CA remainder (SPI load,
// backoffs, turnaround, retry delays) as MAC. end is the service-end time,
// frameTime one frame's air time. Callers skip it when telemetry is off so
// the disabled path costs nothing.
func recordPacketStages(a *obs.SimStages, rec *PacketRecord, end, frameTime float64) {
	total := end - rec.ServiceStart
	air := float64(rec.Tries) * frameTime
	var rx float64
	if rec.Acked {
		rx = mac.AckTime + float64(rec.Tries-1)*mac.AckWaitTimeout
	} else {
		rx = float64(rec.Tries) * mac.AckWaitTimeout
	}
	a.Add(obs.StageQueue, rec.ServiceStart-rec.GenTime)
	a.Add(obs.StageChannel, air)
	a.Add(obs.StageRX, rx)
	a.Add(obs.StageMAC, total-air-rx)
}

func (l *lane) finish(rec *PacketRecord) {
	if rec.ServiceEnd > l.lastEnd {
		l.lastEnd = rec.ServiceEnd
	}
	if l.recordPackets {
		l.records = append(l.records, *rec)
	}
}

// Canceled reports ctx's error, polling done (ctx.Done(), fetched once by
// the caller) with a non-blocking receive so a hot loop never takes the
// context's lock. A context without a Done channel falls back to ctx.Err.
func Canceled(ctx context.Context, done <-chan struct{}) error {
	if done == nil {
		return ctx.Err()
	}
	select {
	case <-done:
		return ctx.Err()
	default:
		return nil
	}
}

// RunBatch simulates many configurations per call on the fast-path batch
// kernel. results[i] corresponds to cfgs[i] and, when opts.Arena is set, is
// backed by the arena (valid until its next RunBatch call).
//
// Per-configuration failures (validation, cancellation mid-batch) are
// reported positionally: errs is nil when every configuration succeeded,
// otherwise errs[i] carries configuration i's error and results[i] is zero.
// The error return is reserved for malformed batch options. Lanes run
// sequentially — parallelism across blocks belongs to the caller (the sweep
// engine runs one arena per worker).
//
// Equivalence: for the same seed, configuration i's Result is identical to
// RunFastContext's — both drive the same kernel, and TestRunBatchMatchesSingle
// pins it.
func RunBatch(ctx context.Context, cfgs []stack.Config, opts BatchOptions) (results []Result, errs []error, err error) {
	if len(cfgs) == 0 {
		return nil, nil, errors.New("sim: RunBatch: no configurations")
	}
	if opts.Seeds != nil && len(opts.Seeds) != len(cfgs) {
		return nil, nil, fmt.Errorf("sim: RunBatch: %d seeds for %d configurations",
			len(opts.Seeds), len(cfgs))
	}
	if opts.Packets == 0 {
		opts.Packets = 4500
	}
	if opts.Packets < 1 {
		return nil, nil, errors.New("sim: Packets must be >= 1")
	}
	if opts.ErrorModel == nil {
		opts.ErrorModel = defaultErrorModel
	}
	if opts.Channel == nil {
		opts.Channel = &defaultChannelParams
	}
	a := opts.Arena
	if a == nil {
		a = NewBatchArena()
	}
	if cap(a.results) < len(cfgs) {
		a.results = make([]Result, len(cfgs))
	}
	results = a.results[:len(cfgs)]

	fail := func(i int, laneErr error) {
		if errs == nil {
			errs = make([]error, len(cfgs))
		}
		errs[i] = laneErr
		results[i] = Result{}
	}

	done := ctx.Done()
	for i, cfg := range cfgs {
		if cerr := Canceled(ctx, done); cerr != nil {
			fail(i, fmt.Errorf("sim: batch canceled before config %d of %d: %w",
				i, len(cfgs), cerr))
			continue
		}
		if verr := cfg.Validate(); verr != nil {
			fail(i, verr)
			continue
		}
		seed := opts.BaseSeed
		if opts.Seeds != nil {
			seed = opts.Seeds[i]
		} else {
			seed = DeriveSeed(opts.BaseSeed, i)
		}
		var tr *obs.SpanContext
		if opts.TraceFor != nil {
			tr = opts.TraceFor(i)
		}
		l := a.lane(i)
		if rerr := l.reset(cfg, seed, EngineFast, opts.Packets,
			opts.Channel, opts.ErrorModel, opts.RecordPackets, opts.Obs, tr); rerr != nil {
			fail(i, rerr)
			continue
		}
		res, runErr := l.run(ctx)
		if runErr != nil {
			fail(i, runErr)
			continue
		}
		results[i] = res
	}
	return results, errs, nil
}
