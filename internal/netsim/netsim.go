// Package netsim extends the single-link simulator to a star topology:
// several sender motes contending for one sink over unslotted CSMA-CA. It
// models the parts of "concurrent transmission" that the single-link
// study abstracts away — clear-channel assessment against real concurrent
// transmissions, congestion backoff, frame collisions at the sink and the
// capture effect — using the same radio, channel, frame and MAC timing
// substrates as the single-link simulator.
//
// The paper's discussion lists concurrent transmission as the first factor
// for future work; package interference models it as exogenous noise, while
// this package models it endogenously from the contending traffic itself.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"wsnlink/internal/channel"
	"wsnlink/internal/frame"
	"wsnlink/internal/mac"
	"wsnlink/internal/phy"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
)

// Options configures a star-topology run.
type Options struct {
	// PacketsPerNode is how many packets each sender generates.
	PacketsPerNode int
	// Seed drives all randomness.
	Seed uint64
	// Channel defaults to the hallway parameters.
	Channel *channel.Params
	// ErrorModel defaults to the paper-calibrated CC2420 model; it is
	// applied to non-collided frames (channel noise losses).
	ErrorModel phy.ErrorModel
	// CaptureThresholdDB: a frame survives an overlap if its RSSI at the
	// sink exceeds the strongest overlapping frame by at least this many
	// dB. Negative disables capture (all overlaps collide). Default 5.
	CaptureThresholdDB float64
	// MaxCCAAttempts bounds the congestion backoffs per transmission
	// (802.15.4 macMaxCSMABackoffs + 1; default 5).
	MaxCCAAttempts int
	// CongestionBackoffMean is the mean congestion backoff (default:
	// half the initial backoff mean, per the TinyOS stack).
	CongestionBackoffMean float64
	// NodeSeeds, when non-empty, gives each node's RNG seed explicitly
	// (len must equal len(cfgs)). When empty, node 0 seeds with Seed
	// itself and node i>0 with sim.DeriveSeed(Seed, i), so a one-node
	// star replays the exact RNG stream of the single-link simulator
	// under the same seed.
	NodeSeeds []uint64
}

func (o Options) withDefaults() Options {
	if o.PacketsPerNode == 0 {
		o.PacketsPerNode = 500
	}
	if o.ErrorModel == nil {
		o.ErrorModel = phy.NewCalibrated()
	}
	if o.Channel == nil {
		p := channel.DefaultParams()
		o.Channel = &p
	}
	if o.CaptureThresholdDB == 0 {
		o.CaptureThresholdDB = 5
	}
	if o.MaxCCAAttempts == 0 {
		o.MaxCCAAttempts = 5
	}
	if o.CongestionBackoffMean == 0 {
		o.CongestionBackoffMean = mac.MeanInitialBackoff / 2
	}
	return o
}

// NodeResult is the per-sender outcome.
type NodeResult struct {
	Config      stack.Config
	Counters    sim.Counters
	Collisions  int // transmissions lost to frame overlap at the sink
	CCAFailures int // attempts abandoned because the channel stayed busy
}

// Result is the outcome of a star run.
type Result struct {
	Nodes    []NodeResult
	Duration float64
	// TotalCollisions counts collided transmissions across nodes.
	TotalCollisions int
	// AggregateGoodputKbps is total delivered payload over the run.
	AggregateGoodputKbps float64
}

// activeTx is one in-flight frame at the sink.
type activeTx struct {
	node          int
	start, end    float64
	rssi          float64
	maxInterferer float64 // strongest overlapping frame's RSSI
}

// starSim holds the shared-medium state.
type starSim struct {
	engine *sim.Engine
	opts   Options

	nodes  []*node
	active []*activeTx
	// ackBusyUntil blocks CCA during the sink's ACK transmissions.
	ackBusyUntil float64
	lastEnd      float64

	ctx     context.Context // cancellation, checked between generations
	done    <-chan struct{} // ctx.Done(), polled without taking ctx's lock
	stopErr error           // first cancellation error observed
}

// node is one sender: the shared link attempt step plus its send queue.
type node struct {
	*sim.Sender
	id  int
	cfg stack.Config

	queue []*sim.PacketRecord
	busy  bool

	res NodeResult
}

// RunStar simulates the star topology.
func RunStar(cfgs []stack.Config, opts Options) (Result, error) {
	return RunStarContext(context.Background(), cfgs, opts)
}

// RunStarContext simulates the star topology, checking ctx between packet
// generations (the same granularity as the single-link simulator): on
// cancellation it abandons the run and returns a zero Result with an error
// wrapping ctx.Err(). The checks never touch a node RNG, so determinism for
// a fixed seed is preserved.
func RunStarContext(ctx context.Context, cfgs []stack.Config, opts Options) (Result, error) {
	if len(cfgs) == 0 {
		return Result{}, errors.New("netsim: no nodes")
	}
	opts = opts.withDefaults()
	if opts.PacketsPerNode < 1 {
		return Result{}, errors.New("netsim: PacketsPerNode must be >= 1")
	}
	if len(opts.NodeSeeds) != 0 && len(opts.NodeSeeds) != len(cfgs) {
		return Result{}, fmt.Errorf("netsim: NodeSeeds has %d entries for %d nodes",
			len(opts.NodeSeeds), len(cfgs))
	}
	s := &starSim{
		engine: sim.NewEngine(),
		opts:   opts,
		ctx:    ctx,
	}
	if ctx != nil {
		s.done = ctx.Done()
	}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return Result{}, fmt.Errorf("netsim: node %d: %w", i, err)
		}
		if cfg.Saturated() {
			return Result{}, fmt.Errorf("netsim: node %d: saturated senders are not supported in contention mode", i)
		}
		step, err := sim.NewSender(cfg, nodeSeed(opts, i), opts.Channel, opts.ErrorModel)
		if err != nil {
			return Result{}, fmt.Errorf("netsim: node %d: %w", i, err)
		}
		n := &node{Sender: step, id: i, cfg: cfg}
		n.res.Config = cfg
		s.nodes = append(s.nodes, n)
	}
	for _, n := range s.nodes {
		s.scheduleGeneration(n, 0)
	}
	s.engine.RunUntilIdle()
	if s.stopErr != nil {
		return Result{}, s.stopErr
	}

	res := Result{Duration: s.lastEnd}
	var deliveredBits float64
	for _, n := range s.nodes {
		n.res.Counters = n.Counters
		res.Nodes = append(res.Nodes, n.res)
		res.TotalCollisions += n.res.Collisions
		deliveredBits += float64(n.res.Counters.Delivered) *
			float64(n.cfg.PayloadBytes) * 8
	}
	if res.Duration > 0 {
		res.AggregateGoodputKbps = deliveredBits / res.Duration / 1000
	}
	return res, nil
}

// nodeSeed returns node i's RNG seed: explicit when NodeSeeds is set,
// otherwise the run seed for node 0 (single-link compatibility) and a
// splitmix64 derivation for the rest.
func nodeSeed(opts Options, i int) uint64 {
	if len(opts.NodeSeeds) != 0 {
		return opts.NodeSeeds[i]
	}
	if i == 0 {
		return opts.Seed
	}
	return sim.DeriveSeed(opts.Seed, i)
}

func (s *starSim) scheduleGeneration(n *node, i int) {
	at := float64(i) * n.cfg.PktInterval
	s.mustAt(at, func() { s.generate(n, i) })
}

func (s *starSim) mustAt(t float64, fn func()) {
	if _, err := s.engine.At(t, fn); err != nil {
		panic("netsim: internal scheduling error: " + err.Error())
	}
}

func (s *starSim) generate(n *node, i int) {
	if s.ctx != nil {
		if err := sim.Canceled(s.ctx, s.done); err != nil {
			// Stop generating; in-flight services drain (bounded
			// work) and RunStarContext reports the cancellation.
			if s.stopErr == nil {
				s.stopErr = fmt.Errorf("netsim: run canceled before node %d packet %d of %d: %w",
					n.id, i, s.opts.PacketsPerNode, err)
			}
			return
		}
	}
	now := s.engine.Now()
	rec := &sim.PacketRecord{ID: i, GenTime: now}
	n.Arrive(rec, len(n.queue))
	switch {
	case !n.busy && len(n.queue) == 0:
		s.startService(n, rec)
	case len(n.queue) < n.cfg.QueueCap:
		n.queue = append(n.queue, rec)
	default:
		n.Drop(rec, now)
		s.touchEnd(now)
	}
	if i+1 < s.opts.PacketsPerNode {
		s.scheduleGeneration(n, i+1)
	}
}

func (s *starSim) touchEnd(t float64) {
	if t > s.lastEnd {
		s.lastEnd = t
	}
}

// startService begins the CSMA sequence for a packet: SPI load, then the
// first attempt.
func (s *starSim) startService(n *node, rec *sim.PacketRecord) {
	n.busy = true
	s.mustAt(n.Begin(rec, s.engine.Now()), func() {
		s.beginAttempt(n, rec, 1)
	})
}

// beginAttempt runs the backoff before try number `try`. The CCA instant
// and the transmit instant are both computed here, with the exact float64
// groupings of sim.Sender's Retry and Backoff (base + (retry+overhead),
// then base + (turnaround + backoff)), so an uncontended transmission
// lands on the identical timestamp the single-link simulator would produce.
func (s *starSim) beginAttempt(n *node, rec *sim.PacketRecord, try int) {
	base := n.Retry(try, s.engine.Now())
	b := mac.SampleBackoff(n.Rand())
	ccaAt := base + b
	txAt := base + (mac.TurnaroundTime + b)
	s.mustAt(ccaAt, func() { s.ccaCheck(n, rec, try, 0, txAt) })
}

// mediumBusy reports whether the sink's channel is occupied at time t and
// prunes finished transmissions.
func (s *starSim) mediumBusy(t float64) bool {
	live := s.active[:0]
	busy := t < s.ackBusyUntil
	for _, tx := range s.active {
		if tx.end > t {
			live = append(live, tx)
			busy = true
		}
	}
	s.active = live
	return busy
}

// ccaCheck samples the medium at the CCA instant. txAt is the precomputed
// transmit instant for an immediately clear channel; after any congestion
// backoff the transmit time is recomputed from the engine clock (txAt < 0
// marks that path — exact link equivalence only needs the uncontended case).
func (s *starSim) ccaCheck(n *node, rec *sim.PacketRecord, try, ccaAttempts int, txAt float64) {
	now := s.engine.Now()
	if s.mediumBusy(now) {
		ccaAttempts++
		if ccaAttempts >= s.opts.MaxCCAAttempts {
			// Channel never cleared: the MAC reports a failed
			// transmission; the retry layer treats it like a
			// missing ACK.
			n.res.CCAFailures++
			rec.Tries = try
			s.afterAttempt(n, rec, try, n.AckTimeout(now))
			return
		}
		backoff := n.Rand().Float64() * 2 * s.opts.CongestionBackoffMean
		s.mustAt(now+backoff, func() { s.ccaCheck(n, rec, try, ccaAttempts, -1) })
		return
	}
	// The RX→TX turnaround after a clear CCA is the collision
	// vulnerability window: a station that passed CCA is invisible to
	// others until its preamble hits the air 192 µs later.
	if txAt < now {
		txAt = now + mac.TurnaroundTime
	}
	s.mustAt(txAt, func() { s.transmit(n, rec, try) })
}

func (s *starSim) transmit(n *node, rec *sim.PacketRecord, try int) {
	now := s.engine.Now()
	rssi, snr := n.Sample(rec, try, now)
	tx := &activeTx{
		node:          n.id,
		start:         now,
		end:           n.Transmit(rec, try, now),
		rssi:          rssi,
		maxInterferer: math.Inf(-1),
	}
	// Mark mutual interference with everything already on the air.
	for _, other := range s.active {
		if other.end > now {
			other.maxInterferer = math.Max(other.maxInterferer, rssi)
			tx.maxInterferer = math.Max(tx.maxInterferer, other.rssi)
		}
	}
	s.active = append(s.active, tx)
	s.mustAt(tx.end, func() { s.txEnd(n, rec, try, tx, snr) })
}

func (s *starSim) txEnd(n *node, rec *sim.PacketRecord, try int, tx *activeTx, snr float64) {
	now := s.engine.Now()
	collided := !math.IsInf(tx.maxInterferer, -1) &&
		(s.opts.CaptureThresholdDB < 0 ||
			tx.rssi < tx.maxInterferer+s.opts.CaptureThresholdDB)
	if collided {
		n.res.Collisions++
		s.afterAttempt(n, rec, try, n.AckTimeout(now))
		return
	}
	out, end := n.Receive(rec, try, snr, now)
	if out != sim.Lost {
		// The sink turns around and ACKs; the medium is busy
		// meanwhile so other senders' CCA defers to it.
		ackEnd := now + mac.TurnaroundTime + phy.AirTime(frame.AckOnAirBytes)
		if ackEnd > s.ackBusyUntil {
			s.ackBusyUntil = ackEnd
		}
	}
	if out == sim.Acked {
		s.mustAt(end, func() { s.completeService(n, rec) })
		return
	}
	s.afterAttempt(n, rec, try, end)
}

// afterAttempt resumes a packet whose attempt drew no ACK once the ACK-wait
// timeout expires at `at`: it retries or gives up.
func (s *starSim) afterAttempt(n *node, rec *sim.PacketRecord, try int, at float64) {
	s.mustAt(at, func() {
		if try < n.cfg.MaxTries {
			s.beginAttempt(n, rec, try+1)
			return
		}
		s.completeService(n, rec)
	})
}

func (s *starSim) completeService(n *node, rec *sim.PacketRecord) {
	now := s.engine.Now()
	n.Complete(rec, now)
	s.touchEnd(now)

	if len(n.queue) > 0 {
		next := n.queue[0]
		n.queue = n.queue[1:]
		s.startService(n, next)
	} else {
		n.busy = false
	}
}
