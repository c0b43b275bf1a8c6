package scenario

import (
	"context"
	"fmt"

	"wsnlink/internal/channel"
	"wsnlink/internal/interference"
	"wsnlink/internal/lpl"
	"wsnlink/internal/metrics"
	"wsnlink/internal/mobility"
	"wsnlink/internal/netsim"
	"wsnlink/internal/obs"
	"wsnlink/internal/phy"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
)

// RunOptions configures one scenario row.
type RunOptions struct {
	// Packets per sender (default 500).
	Packets int
	// Seed drives all randomness in the row. The star scenario derives
	// node i>0's seed with sim.DeriveSeed(Seed, i); node 0 replays the
	// single-link stream for Seed exactly.
	Seed uint64
	// FullDES selects sim.EngineDES for the sim-backed scenarios (link,
	// interference). The star scenario is always event-driven and the
	// mobility scenario always samples its backoffs; LPL is closed-form.
	FullDES bool
	// ErrorModel overrides the calibrated CC2420 model (link, star,
	// interference base).
	ErrorModel phy.ErrorModel
	// Channel overrides the hallway parameters (link, star; the
	// mobility scenario uses them for its own link model).
	Channel *channel.Params
	// Obs receives pipeline telemetry where the underlying simulator
	// supports it; every scenario at least counts packets.
	Obs *obs.Metrics
	// Trace receives per-packet lifecycle events (sim-backed scenarios
	// only).
	Trace *obs.SpanContext
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Packets == 0 {
		o.Packets = 500
	}
	return o
}

// interferenceSeedStream separates the burst chain's RNG stream from the
// victim link's (which uses the row seed itself).
const interferenceSeedStream = 0x6a09e667

// Run executes one scenario row: spec.Kind selects the simulator, cfg is
// the per-link (per-node, for the star) stack configuration, and opts.Seed
// makes the row deterministic. The spec is normalized first, so callers
// may pass sparse specs; unknown kinds surface as *UnknownKindError.
func Run(ctx context.Context, spec Spec, cfg stack.Config, opts RunOptions) (Row, error) {
	if err := spec.Normalize(); err != nil {
		return Row{}, err
	}
	opts = opts.withDefaults()
	switch spec.Kind {
	case KindLink:
		return runLink(ctx, cfg, opts)
	case KindStar:
		return runStar(ctx, *spec.Star, cfg, opts)
	case KindInterference:
		return runInterference(ctx, *spec.Interference, cfg, opts)
	case KindLPL:
		return runLPL(*spec.LPL, cfg, opts)
	case KindMobility:
		return runMobility(ctx, *spec.Mobility, cfg, opts)
	}
	return Row{}, &UnknownKindError{Name: string(spec.Kind)}
}

// offeredLoadPPS is the aggregate application rate; 0 for saturated senders.
func offeredLoadPPS(nodes int, cfg stack.Config) float64 {
	if cfg.Saturated() {
		return 0
	}
	return float64(nodes) / cfg.PktInterval
}

// aggGoodputKbps uses the exact float64 grouping of netsim's aggregate, so
// a one-node star and a link row land on identical bytes.
func aggGoodputKbps(delivered, payloadBytes int, duration float64) float64 {
	if duration <= 0 {
		return 0
	}
	return float64(delivered) * float64(payloadBytes) * 8 / duration / 1000
}

func simOptions(opts RunOptions) sim.Options {
	simOpts := sim.Options{
		Packets:    opts.Packets,
		Seed:       opts.Seed,
		ErrorModel: opts.ErrorModel,
		Channel:    opts.Channel,
		Obs:        opts.Obs,
		Trace:      opts.Trace,
	}
	if opts.FullDES {
		simOpts.Engine = sim.EngineDES
	}
	return simOpts
}

func runLink(ctx context.Context, cfg stack.Config, opts RunOptions) (Row, error) {
	res, err := sim.Simulate(ctx, cfg, simOptions(opts))
	if err != nil {
		return Row{}, err
	}
	return Row{
		Scenario: KindLink,
		Config:   cfg,
		Seed:     opts.Seed,
		Packets:  opts.Packets,
		Report:   metrics.FromResult(res),
		Net: NetStats{
			Nodes:          1,
			OfferedLoadPPS: offeredLoadPPS(1, cfg),
			AggGoodputKbps: aggGoodputKbps(res.Counters.Delivered, cfg.PayloadBytes, res.Duration),
		},
	}, nil
}

func runInterference(ctx context.Context, p InterferenceParams, cfg stack.Config, opts RunOptions) (Row, error) {
	ip := p.params()
	em, err := interference.NewBursty(opts.ErrorModel, ip,
		sim.DeriveSeed(opts.Seed, interferenceSeedStream))
	if err != nil {
		return Row{}, err
	}
	simOpts := simOptions(opts)
	simOpts.ErrorModel = em
	res, err := sim.Simulate(ctx, cfg, simOpts)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Scenario: KindInterference,
		Config:   cfg,
		Seed:     opts.Seed,
		Packets:  opts.Packets,
		Report:   metrics.FromResult(res),
		Net: NetStats{
			Nodes:          1,
			OfferedLoadPPS: offeredLoadPPS(1, cfg),
			AggGoodputKbps: aggGoodputKbps(res.Counters.Delivered, cfg.PayloadBytes, res.Duration),
			InterfererDuty: ip.DutyCycle,
			SNRPenaltyDB:   ip.SNRPenaltyDB(),
		},
	}, nil
}

// params converts the wire block to the interference model's parameters.
func (p InterferenceParams) params() interference.Params {
	return interference.Params{
		DutyCycle:        p.DutyCycle,
		MeanBurstTx:      p.MeanBurstTx,
		PowerAtVictimDBm: p.PowerAtVictimDBm,
		CollisionProb:    p.CollisionProb,
	}
}

func runStar(ctx context.Context, p StarParams, cfg stack.Config, opts RunOptions) (Row, error) {
	cfgs := make([]stack.Config, p.Nodes)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	res, err := netsim.RunStarContext(ctx, cfgs, netsim.Options{
		PacketsPerNode:     opts.Packets,
		Seed:               opts.Seed,
		Channel:            opts.Channel,
		ErrorModel:         opts.ErrorModel,
		CaptureThresholdDB: p.CaptureThresholdDB,
		MaxCCAAttempts:     p.MaxCCAAttempts,
	})
	if err != nil {
		return Row{}, err
	}
	var sum sim.Counters
	var ccaFailures int
	for _, n := range res.Nodes {
		addCounters(&sum, n.Counters)
		ccaFailures += n.CCAFailures
	}
	if opts.Obs != nil {
		opts.Obs.AddPackets(int64(sum.Generated))
	}
	net := NetStats{
		Nodes:          p.Nodes,
		OfferedLoadPPS: offeredLoadPPS(p.Nodes, cfg),
		AggGoodputKbps: res.AggregateGoodputKbps,
	}
	if sum.TotalTransmissions > 0 {
		net.CollisionRate = float64(res.TotalCollisions) / float64(sum.TotalTransmissions)
	}
	if sum.Serviced > 0 {
		net.CCAFailRate = float64(ccaFailures) / float64(sum.Serviced)
	}
	return Row{
		Scenario: KindStar,
		Config:   cfg,
		Seed:     opts.Seed,
		Packets:  opts.Packets,
		Report: metrics.FromResult(sim.Result{
			Config:   cfg,
			Duration: res.Duration,
			Counters: sum,
		}),
		Net: net,
	}, nil
}

// addCounters accumulates b into a field by field (MaxQueueOccupancy takes
// the max; everything else sums).
func addCounters(a *sim.Counters, b sim.Counters) {
	a.Generated += b.Generated
	a.QueueDrops += b.QueueDrops
	a.RadioDrops += b.RadioDrops
	a.Delivered += b.Delivered
	a.Duplicates += b.Duplicates
	a.Acked += b.Acked
	a.TotalTransmissions += b.TotalTransmissions
	a.AckedTransmissions += b.AckedTransmissions
	a.TotalTxBits += b.TotalTxBits
	a.TxEnergyMicroJ += b.TxEnergyMicroJ
	a.ListenTimeS += b.ListenTimeS
	a.SumServiceTime += b.SumServiceTime
	a.Serviced += b.Serviced
	a.SumDelay += b.SumDelay
	a.DeliveredWithDelay += b.DeliveredWithDelay
	a.SumTriesAcked += b.SumTriesAcked
	a.SumQueueOccupancy += b.SumQueueOccupancy
	a.ArrivalsSeen += b.ArrivalsSeen
	a.SumSNR += b.SumSNR
	a.SumSNRSq += b.SumSNRSq
	a.SumRSSI += b.SumRSSI
	a.SumRSSISq += b.SumRSSISq
	a.SNRSamples += b.SNRSamples
	if b.MaxQueueOccupancy > a.MaxQueueOccupancy {
		a.MaxQueueOccupancy = b.MaxQueueOccupancy
	}
}

func runLPL(p LPLParams, cfg stack.Config, opts RunOptions) (Row, error) {
	if cfg.Saturated() {
		return Row{}, fmt.Errorf("scenario: lpl requires PktInterval > 0 (saturated senders have no rendezvous rate)")
	}
	lc := lpl.Config{
		WakeInterval: p.WakeIntervalS,
		TxPower:      cfg.TxPower,
		PayloadBytes: cfg.PayloadBytes,
		MsgRatePerS:  1 / cfg.PktInterval,
	}
	if err := lc.Validate(); err != nil {
		return Row{}, err
	}
	if opts.Obs != nil {
		opts.Obs.AddPackets(int64(opts.Packets))
	}
	// The LPL model is closed-form: every metric is deterministic and
	// the seed is irrelevant (it still enters the row for provenance).
	energyPerBit := lc.EnergyPerBit()
	goodput := lc.MsgRatePerS * float64(cfg.PayloadBytes) * 8 / 1000
	rep := metrics.Report{
		Config:             cfg,
		EnergyPerBitMicroJ: energyPerBit,
		EnergyEfficiency:   1 / energyPerBit,
		GoodputKbps:        goodput,
		MeanDelay:          lc.ExpectedLatency(),
		MeanServiceTime:    lc.ExpectedLatency(),
		Utilization:        lc.ExpectedLatency() / cfg.PktInterval,
		Generated:          opts.Packets,
		Delivered:          opts.Packets,
	}
	return Row{
		Scenario: KindLPL,
		Config:   cfg,
		Seed:     opts.Seed,
		Packets:  opts.Packets,
		Report:   rep,
		Net: NetStats{
			Nodes:          1,
			OfferedLoadPPS: offeredLoadPPS(1, cfg),
			AggGoodputKbps: goodput,
			DutyCycle:      lc.ReceiverDutyCycle(),
			WakeIntervalS:  p.WakeIntervalS,
			LatencyS:       lc.ExpectedLatency(),
		},
	}, nil
}

func runMobility(ctx context.Context, p MobilityParams, cfg stack.Config, opts RunOptions) (Row, error) {
	if cfg.Saturated() {
		return Row{}, fmt.Errorf("scenario: mobility requires PktInterval > 0")
	}
	errModel := opts.ErrorModel
	if errModel == nil {
		errModel = phy.NewCalibrated()
	}
	// The trajectory, fading, backoffs and losses all draw from the
	// sender's one PCG stream, seeded like the single-link simulator, so a
	// row is a pure function of (params, config, seed).
	step, err := sim.NewSender(cfg, opts.Seed, nil, errModel)
	if err != nil {
		return Row{}, err
	}
	rng := step.Rand()
	duration := float64(opts.Packets)*cfg.PktInterval + 1
	area := mobility.Rect{MinX: 0, MinY: 0, MaxX: p.AreaXM, MaxY: p.AreaYM}
	path, err := mobility.RandomWaypoint(area, p.SpeedMinMPS, p.SpeedMaxMPS, duration, rng)
	if err != nil {
		return Row{}, err
	}
	params := channel.DefaultParams()
	if opts.Channel != nil {
		params = *opts.Channel
	}
	ml, err := mobility.NewMobileLink(params, path, mobility.Point{}, rng)
	if err != nil {
		return Row{}, err
	}

	txDBm := cfg.TxPower.DBm()
	c := &step.Counters
	var linkAt, prevEnd, sumDist float64
	for i := 0; i < opts.Packets; i++ {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return Row{}, fmt.Errorf("scenario: mobility run canceled before packet %d of %d: %w",
					i, opts.Packets, err)
			}
		}
		gen := float64(i) * cfg.PktInterval
		c.Generated++
		c.ArrivalsSeen++
		// Single radio, unbounded effective queue: a packet whose
		// predecessor is still in service waits for it.
		rec := sim.PacketRecord{ID: i, GenTime: gen}
		t := step.Begin(&rec, max(gen, prevEnd))
		for try := 1; try <= cfg.MaxTries; try++ {
			t = step.Backoff(step.Retry(try, t))
			if t > linkAt {
				ml.Advance(t - linkAt)
				linkAt = t
			}
			snr := ml.SNR(txDBm)
			if try == 1 {
				step.FirstSample(&rec, ml.RSSI(txDBm), snr)
				sumDist += ml.Distance()
			}
			t = step.Transmit(&rec, try, t)
			var out sim.Outcome
			if out, t = step.Receive(&rec, try, snr, t); out == sim.Acked {
				break
			}
		}
		step.Complete(&rec, t)
		prevEnd = t
	}
	if opts.Obs != nil {
		opts.Obs.AddPackets(int64(c.Generated))
	}
	net := NetStats{
		Nodes:          1,
		OfferedLoadPPS: offeredLoadPPS(1, cfg),
		AggGoodputKbps: aggGoodputKbps(c.Delivered, cfg.PayloadBytes, prevEnd),
		SpeedMPS:       (p.SpeedMinMPS + p.SpeedMaxMPS) / 2,
	}
	if opts.Packets > 0 {
		net.MeanDistanceM = sumDist / float64(opts.Packets)
	}
	return Row{
		Scenario: KindMobility,
		Config:   cfg,
		Seed:     opts.Seed,
		Packets:  opts.Packets,
		Report: metrics.FromResult(sim.Result{
			Config:   cfg,
			Duration: prevEnd,
			Counters: *c,
		}),
		Net: net,
	}, nil
}
