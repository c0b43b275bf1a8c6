package valid

import (
	"context"
	"fmt"
	"math"

	"wsnlink/internal/mac"
	"wsnlink/internal/metrics"
	"wsnlink/internal/phy"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
	"wsnlink/internal/stats"
)

// wilsonZ is the quantile for every binomial oracle: z = 5 keeps the
// two-sided miss probability per check below 6e-7, so even a suite of
// hundreds of checks has a negligible false-alarm budget over the (fixed)
// seed draw.
const wilsonZ = 5

// oracleAlpha is the per-check false-alarm budget for the Hoeffding-bounded
// mean comparisons (transmission count, DES service time).
const oracleAlpha = 1e-9

// oracleConfigs spans the regimes the oracles must hold in: clean and
// near-sensitivity links, with and without retries, saturated and queued
// senders, small and large payloads — one hand-picked point per regime
// rather than a product (the metamorphic sweeps cover the space between).
func oracleConfigs() []stack.Config {
	return []stack.Config{
		// Clean short link, saturated sender, large payload.
		{DistanceM: 10, TxPower: 31, MaxTries: 3, RetryDelay: 0.03, QueueCap: 1, PktInterval: 0, PayloadBytes: 110},
		// Lossy mid link, deep retries.
		{DistanceM: 30, TxPower: 11, MaxTries: 8, RetryDelay: 0, QueueCap: 1, PktInterval: 0, PayloadBytes: 50},
		// Very lossy, no retransmissions at all.
		{DistanceM: 30, TxPower: 7, MaxTries: 1, RetryDelay: 0, QueueCap: 1, PktInterval: 0, PayloadBytes: 20},
		// Near sensitivity, deep queue, slow arrivals.
		{DistanceM: 35, TxPower: 3, MaxTries: 5, RetryDelay: 0.09, QueueCap: 30, PktInterval: 0.05, PayloadBytes: 80},
		// Overloaded arrivals: queue drops must not corrupt the accounting.
		{DistanceM: 20, TxPower: 19, MaxTries: 5, RetryDelay: 0.03, QueueCap: 30, PktInterval: 0.01, PayloadBytes: 110},
		// Light traffic on a pristine link.
		{DistanceM: 5, TxPower: 31, MaxTries: 2, RetryDelay: 0, QueueCap: 1, PktInterval: 1, PayloadBytes: 5},
	}
}

// oracleModels pairs each error model with the closed form it must match:
// the paper-calibrated packet fit and the textbook O-QPSK/DSSS BER curve.
func oracleModels() []struct {
	name  string
	model phy.ErrorModel
} {
	return []struct {
		name  string
		model phy.ErrorModel
	}{
		{"calibrated", phy.NewCalibrated()},
		{"oqpsk", phy.NewAnalytic(0)},
	}
}

// runOracles simulates every oracle configuration under every error model
// on the quiet channel and checks the run against the closed forms.
func runOracles(ctx context.Context, opts Options) ([]Check, error) {
	params := QuietParams()
	var checks []Check
	for mi, m := range oracleModels() {
		for ci, cfg := range oracleConfigs() {
			simOpts := sim.Options{
				Packets:    opts.Packets,
				Seed:       splitmix64(opts.BaseSeed ^ uint64(mi)<<32 ^ uint64(ci)),
				ErrorModel: m.model,
				Channel:    &params,
			}
			if opts.FullDES {
				simOpts.Engine = sim.EngineDES
			}
			res, err := sim.Simulate(ctx, cfg, simOpts)
			if err != nil {
				return nil, fmt.Errorf("config %d (%v): %w", ci, cfg, err)
			}
			tag := fmt.Sprintf("%s/cfg%d", m.name, ci)
			checks = append(checks, checkRun(tag, cfg, m.model, params.MeanSNR(cfg.TxPower.DBm(), cfg.DistanceM), res, opts)...)
		}
	}
	return checks, nil
}

// checkRun derives every oracle verdict for one simulated run. snr is the
// quiet-channel SNR every attempt saw.
func checkRun(tag string, cfg stack.Config, model phy.ErrorModel, snr float64, res sim.Result, opts Options) []Check {
	c := res.Counters
	rep := metrics.FromResult(res)
	var out []Check
	add := func(name, layer string, pass bool, detail string, args ...any) {
		out = append(out, Check{
			Name:   "oracle/" + name + "/" + tag,
			Layer:  layer,
			Pass:   pass,
			Detail: fmt.Sprintf(detail, args...),
		})
	}

	// Counting invariants hold exactly on any channel.
	if err := c.CheckInvariants(cfg); err != nil {
		add("invariants", "cross", false, "%v", err)
	} else {
		add("invariants", "cross", true, "all conservation laws hold")
	}

	// Per-attempt success probability from the PHY error model at the
	// quiet-channel SNR: an attempt is ACKed iff the data frame and the
	// returning ACK both survive.
	q := (1 - model.DataPER(snr, cfg.PayloadBytes)) * (1 - model.AckPER(snr))
	pAck := 1 - math.Pow(1-q, float64(cfg.MaxTries))
	pDel := 1 - math.Pow(model.DataPER(snr, cfg.PayloadBytes), float64(cfg.MaxTries))

	// Binomial oracles: each serviced packet is an independent Bernoulli
	// trial (the quiet channel makes q identical across attempts), so the
	// ACK and delivery counts are exact binomials with known p.
	if c.Serviced > 0 {
		if w, err := stats.Wilson(c.Acked, c.Serviced, wilsonZ); err != nil {
			add("ack-binomial", "phy", false, "wilson: %v", err)
		} else {
			add("ack-binomial", "phy", w.Contains(pAck),
				"acked %d/%d (interval [%.5f, %.5f]) vs analytic p=%.5f at SNR %.2f dB",
				c.Acked, c.Serviced, w.Lo, w.Hi, pAck, snr)
		}
		if w, err := stats.Wilson(c.Delivered, c.Serviced, wilsonZ); err != nil {
			add("delivery-binomial", "phy", false, "wilson: %v", err)
		} else {
			add("delivery-binomial", "phy", w.Contains(pDel),
				"delivered %d/%d (interval [%.5f, %.5f]) vs analytic p=%.5f",
				c.Delivered, c.Serviced, w.Lo, w.Hi, pDel)
		}
	}

	// Geometric transmission count: tries of an ACKed packet follow a
	// geometric distribution truncated at MaxTries (Eq. 7's mechanism).
	if c.Acked > 0 && q > 0 {
		expTries := truncGeomMean(q, cfg.MaxTries)
		obs := c.SumTriesAcked / float64(c.Acked)
		margin := 0.0
		if cfg.MaxTries > 1 {
			m, err := stats.HoeffdingMargin(c.Acked, float64(cfg.MaxTries-1), oracleAlpha)
			if err != nil {
				add("tries-geometric", "mac", false, "margin: %v", err)
				m = math.NaN()
			}
			margin = m
		}
		if !math.IsNaN(margin) {
			add("tries-geometric", "mac", math.Abs(obs-expTries) <= margin,
				"mean tries %.4f vs truncated-geometric %.4f (margin %.4f over %d acked)",
				obs, expTries, margin, c.Acked)
		}
	}

	// Energy accounting against the CC2420 datasheet: every radio state's
	// energy is its dwell time × state current × supply voltage. TX time
	// follows from the bit count at 250 kb/s; listen time was accumulated
	// by the simulator and is itself pinned by CheckInvariants.
	txTimeS := float64(c.TotalTxBits) / phy.DataRateBPS
	wantTxE := txTimeS * cfg.TxPower.CurrentMA() / 1000 * phy.SupplyVolts * 1e6
	add("tx-energy-datasheet", "cross", closeRel(c.TxEnergyMicroJ, wantTxE),
		"TX energy %.3f µJ vs time×current×V = %.3f µJ (%.0f bits, I=%.2f mA)",
		c.TxEnergyMicroJ, wantTxE, float64(c.TotalTxBits), cfg.TxPower.CurrentMA())
	wantListenE := c.ListenTimeS * phy.RxCurrentMA / 1000 * phy.SupplyVolts * 1e6
	add("listen-energy-datasheet", "cross", closeRel(rep.ListenEnergyMicroJ, wantListenE),
		"listen energy %.3f µJ vs time×current×V = %.3f µJ (%.4f s in RX)",
		rep.ListenEnergyMicroJ, wantListenE, c.ListenTimeS)

	// Service-time closed form (Eqs. 5–6): with the observed try counts,
	// the accumulated service time is fully determined by the MAC timing
	// constants. The fast path uses the mean backoff, so the identity is
	// exact; the DES samples backoffs, leaving zero-mean jitter bounded by
	// ±MeanInitialBackoff per attempt — a Hoeffding margin absorbs it.
	if c.Serviced > 0 {
		closedSum := float64(c.Acked)*mac.ServiceTime(cfg.PayloadBytes, 1, cfg.RetryDelay, true) +
			(c.SumTriesAcked-float64(c.Acked))*mac.RetryTime(cfg.PayloadBytes, cfg.RetryDelay) +
			float64(c.Serviced-c.Acked)*mac.ServiceTime(cfg.PayloadBytes, cfg.MaxTries, cfg.RetryDelay, false)
		obsMean := c.SumServiceTime / float64(c.Serviced)
		closedMean := closedSum / float64(c.Serviced)
		if opts.FullDES {
			width := 2 * float64(cfg.MaxTries) * mac.MeanInitialBackoff
			margin, err := stats.HoeffdingMargin(c.Serviced, width, oracleAlpha)
			if err != nil {
				add("service-time", "mac", false, "margin: %v", err)
			} else {
				add("service-time", "mac", math.Abs(obsMean-closedMean) <= margin,
					"mean service %.6f s vs closed form %.6f s (DES margin %.6f)",
					obsMean, closedMean, margin)
			}
		} else {
			add("service-time", "mac", closeRel(obsMean, closedMean),
				"mean service %.9f s vs closed form %.9f s (exact on fast path)",
				obsMean, closedMean)
		}
	}

	// Delay floor: no delivered packet can beat one unqueued, first-try
	// success — SPI load, turnaround, the frame, and the ACK (the M/G/1
	// view: waiting time and retries only ever add to this service floor).
	if c.DeliveredWithDelay > 0 {
		dMin := mac.SPILoadTime(cfg.PayloadBytes) + mac.TurnaroundTime +
			mac.FrameAirTime(cfg.PayloadBytes) + mac.AckTime
		add("delay-floor", "app", rep.MeanDelay >= dMin*(1-1e-12),
			"mean delay %.6f s vs single-service floor %.6f s", rep.MeanDelay, dMin)
	}

	return out
}

// truncGeomMean is E[tries | ACKed] for per-attempt success q and at most m
// attempts: Σ_{k=1..m} k·q(1−q)^{k−1} / (1−(1−q)^m).
func truncGeomMean(q float64, m int) float64 {
	if q >= 1 {
		return 1
	}
	num, fail := 0.0, 1.0
	for k := 1; k <= m; k++ {
		num += float64(k) * q * fail
		fail *= 1 - q
	}
	return num / (1 - fail)
}

// closeRel reports near-equality up to streaming-sum rounding.
func closeRel(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-9 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// splitmix64 is the standard seed scrambler (same construction the sweep
// engine uses to derive per-configuration seeds).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
