package sim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"wsnlink/internal/channel"
	"wsnlink/internal/frame"
	"wsnlink/internal/mac"
	"wsnlink/internal/phy"
	"wsnlink/internal/stack"
	"wsnlink/internal/units"
)

// kernelTables holds per-payload and per-power-level derived constants —
// the service-time and energy values a Sender reads instead of recomputing
// MAC timing sums and PA-table interpolations per configuration. Entries
// are pure functions of phy/mac constants, filled once at package init.
type kernelTables struct {
	payload [frame.MaxPayloadBytes + 1]struct {
		spiLoad   float64 // mac.SPILoadTime(payload)
		frameTime float64 // mac.FrameAirTime(payload)
		frameBits int     // 8 * frame.OnAirBytes(payload)
	}
	power [32]struct {
		txDBm        float64 // PowerLevel.DBm()
		energyPerBit float64 // PowerLevel.TxEnergyPerBitMicroJ()
	}
}

var tables = func() *kernelTables {
	t := &kernelTables{}
	for b := range t.payload {
		e := &t.payload[b]
		e.spiLoad = mac.SPILoadTime(b)
		e.frameTime = mac.FrameAirTime(b)
		e.frameBits = 8 * frame.OnAirBytes(b)
	}
	for p := range t.power {
		t.power[p].txDBm = phy.PowerLevel(p).DBm()
		t.power[p].energyPerBit = phy.PowerLevel(p).TxEnergyPerBitMicroJ()
	}
	return t
}()

// Outcome is how one transmission attempt ended at the sender.
type Outcome uint8

const (
	// Lost: the receiver did not decode the data frame.
	Lost Outcome = iota
	// Unacked: the receiver decoded the frame but the ACK was lost.
	Unacked
	// Acked: the sender received the ACK; the packet's service ends.
	Acked
)

// Sender is the per-sender link attempt step: the CSMA-CA/retry/ACK/energy
// transition of one 802.15.4 sender, split into the per-attempt operations
// every link-level simulator composes. It holds the sender's RNG, its
// static channel link, the configuration's derived constants and the run's
// Counters. The link kernel (both engines) walks the operations in a
// recurrence, the star topology interleaves them with shared-medium events,
// and the mobility scenario supplies its own channel sample between them.
//
// Per attempt the order is Retry, Backoff, Sample (or FirstSample with a
// foreign channel), Transmit, then Receive (or AckTimeout when the frame
// never reached the receiver's decoder); a packet opens with Arrive and
// then Begin or Drop, and closes with Complete. The step only counts:
// telemetry and lifecycle tracing belong to the simulator that walks the
// operations, which keeps the per-packet bookkeeping small enough to inline
// into the batch kernel's loop. A Sender is not safe for concurrent use.
type Sender struct {
	src  rand.PCG
	rng  *rand.Rand
	link channel.Link

	cfg            stack.Config
	errModel       phy.ErrorModel
	sampledBackoff bool

	// Per-configuration derived constants (from the kernel tables).
	txDBm       float64
	frameBits   int
	frameEnergy float64 // frameBits × energy per bit
	spiLoad     float64
	frameTime   float64
	meanMAC     float64 // mac.MeanMACDelay()
	retryStep   float64 // RetryDelay + mac.RetrySoftwareOverhead

	// Fused Calibrated error-model fast path: when the model is the
	// stock phy.Calibrated, DataPER and AckPER share one exp(Beta·SNR)
	// evaluation and the ACK power is an integer exponent, computed by
	// squaring. A fuzz test pins the fused path to the interface path.
	cal      bool
	alphaPay float64 // Alpha × payload bytes
	ackCoef  float64 // Alpha / 8
	beta     float64
	floorSNR float64
	ackBits  int // 8 × AckBytes

	channelAt float64

	// Counters accumulates the run.
	Counters Counters
}

// NewSender builds a step for one sender whose RNG is seeded exactly as the
// link simulator seeds it. With params non-nil the sender owns a static
// channel link at cfg.DistanceM, built from the first RNG draws; with
// params nil the caller samples its own channel (FirstSample) and may draw
// from Rand for it. Backoffs are sampled per attempt.
func NewSender(cfg stack.Config, seed uint64, params *channel.Params, em phy.ErrorModel) (*Sender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sender{}
	s.rng = rand.New(&s.src)
	if err := s.reset(cfg, seed, params, em, true); err != nil {
		return nil, err
	}
	return s, nil
}

// reset re-arms the sender for one configuration. The RNG is reseeded and
// the link rebuilt in place with the same construction-time draws, so a
// reused sender is byte-identical to a fresh one.
func (s *Sender) reset(cfg stack.Config, seed uint64, params *channel.Params,
	em phy.ErrorModel, sampledBackoff bool) error {
	s.src.Seed(seed, seed^0x9e3779b97f4a7c15)
	if params != nil {
		if err := s.link.Reset(*params, cfg.DistanceM, s.rng); err != nil {
			return fmt.Errorf("sim: channel: %w", err)
		}
	}
	s.cfg = cfg
	s.errModel = em
	s.sampledBackoff = sampledBackoff
	pw := &tables.power[cfg.TxPower]
	pl := &tables.payload[cfg.PayloadBytes]
	s.txDBm = pw.txDBm
	s.spiLoad, s.frameTime, s.frameBits = pl.spiLoad, pl.frameTime, pl.frameBits
	s.frameEnergy = float64(s.frameBits) * pw.energyPerBit
	s.meanMAC = mac.MeanMACDelay()
	s.retryStep = cfg.RetryDelay + mac.RetrySoftwareOverhead

	if cm, ok := em.(phy.Calibrated); ok {
		s.cal = true
		s.alphaPay = cm.Alpha * float64(cfg.PayloadBytes)
		s.ackCoef = cm.Alpha / 8
		s.beta = cm.Beta
		s.floorSNR = cm.FloorSNR
		ackBytes := cm.AckBytes
		if ackBytes <= 0 {
			ackBytes = 11
		}
		s.ackBits = 8 * ackBytes
	} else {
		s.cal = false
	}

	s.channelAt = 0
	s.Counters = Counters{}
	return nil
}

// Rand returns the sender's RNG, for draws the caller makes between steps
// (contention backoffs, a foreign channel or trajectory).
func (s *Sender) Rand() *rand.Rand { return s.rng }

// Arrive counts a generated packet that found waiting packets queued ahead
// of it (the one in service excluded).
func (s *Sender) Arrive(rec *PacketRecord, waiting int) {
	rec.QueueLen = waiting
	s.Counters.Generated++
	s.Counters.SumQueueOccupancy += float64(waiting)
	s.Counters.ArrivalsSeen++
	if waiting > s.Counters.MaxQueueOccupancy {
		s.Counters.MaxQueueOccupancy = waiting
	}
}

// Drop discards an arrival on queue overflow at time t.
func (s *Sender) Drop(rec *PacketRecord, t float64) {
	rec.QueueDrop = true
	rec.ServiceEnd = t
	s.Counters.QueueDrops++
}

// Begin hands the packet to the MAC at time t and returns the instant the
// SPI load into the radio completes.
func (s *Sender) Begin(rec *PacketRecord, t float64) float64 {
	rec.ServiceStart = t
	return t + s.spiLoad
}

// Retry returns the instant attempt try's backoff starts, given the
// instant t the previous attempt ended (or the SPI load completed): the
// retry delay plus software overhead before every retry.
func (s *Sender) Retry(try int, t float64) float64 {
	if try > 1 {
		t += s.retryStep
	}
	return t
}

// Backoff returns the clear-channel instant of a backoff starting at t:
// RX/TX turnaround plus the initial backoff — sampled per attempt, or its
// mean on the fast engine.
func (s *Sender) Backoff(t float64) float64 {
	if s.sampledBackoff {
		return t + (mac.TurnaroundTime + mac.SampleBackoff(s.rng))
	}
	return t + s.meanMAC
}

// Sample advances the sender's channel link to time t and draws the
// attempt's (RSSI, SNR) reading, recording it on the first attempt.
func (s *Sender) Sample(rec *PacketRecord, try int, t float64) (rssi, snr float64) {
	if t > s.channelAt {
		s.link.Advance(t - s.channelAt)
		s.channelAt = t
	}
	rssi, snr = s.link.Sample(s.txDBm)
	if try == 1 {
		s.FirstSample(rec, rssi, snr)
	}
	return rssi, snr
}

// FirstSample records the first attempt's channel reading on the packet
// and in the run's RSSI/SNR moments.
func (s *Sender) FirstSample(rec *PacketRecord, rssi, snr float64) {
	rec.SNR = snr
	rec.RSSI = channel.Quantize(rssi)
	rec.LQI = phy.LQI(snr)
	s.Counters.SumSNR += snr
	s.Counters.SumSNRSq += snr * snr
	s.Counters.SumRSSI += rssi
	s.Counters.SumRSSISq += rssi * rssi
	s.Counters.SNRSamples++
}

// Transmit puts attempt try's frame on the air at time t and returns the
// instant it ends.
func (s *Sender) Transmit(rec *PacketRecord, try int, t float64) float64 {
	rec.Tries = try
	s.Counters.TotalTransmissions++
	s.Counters.TotalTxBits += int64(s.frameBits)
	s.Counters.TxEnergyMicroJ += s.frameEnergy
	return t + s.frameTime
}

// powInt returns x^n for n ≥ 0 by binary exponentiation. For the ACK-frame
// success power (1−p_b)^bits this agrees with math.Pow to within a few ulp,
// far below the resolution a Float64 comparison against the probability can
// observe.
func powInt(x float64, n int) float64 {
	r := 1.0
	for n > 0 {
		if n&1 == 1 {
			r *= x
		}
		x *= x
		n >>= 1
	}
	return r
}

// Receive resolves a frame that ended at time t with the given SNR: the
// data and ACK loss draws, then either the ACK reception or the ACK-wait
// timeout. It returns the outcome and the instant the attempt ends.
func (s *Sender) Receive(rec *PacketRecord, try int, snr, t float64) (Outcome, float64) {
	// On the fused Calibrated path DataPER and AckPER share one
	// exp(Beta·SNR); the expressions otherwise reproduce phy.Calibrated
	// exactly (same factors, same clamps).
	var dataPER, e float64
	if s.cal {
		if snr <= s.floorSNR {
			dataPER = 1
		} else {
			e = math.Exp(s.beta * snr)
			dataPER = units.Clamp(s.alphaPay*e, 0, 1)
		}
	} else {
		dataPER = s.errModel.DataPER(snr, s.cfg.PayloadBytes)
	}
	out := Lost
	if s.rng.Float64() >= dataPER {
		if rec.Delivered {
			s.Counters.Duplicates++
		} else {
			rec.Delivered = true
			s.Counters.Delivered++
		}
		var ackPER float64
		if s.cal {
			// Decoding implies dataPER < 1, hence snr > floor and
			// e is valid.
			pb := units.Clamp(s.ackCoef*e, 0, 0.5)
			ackPER = 1 - powInt(1-pb, s.ackBits)
		} else {
			ackPER = s.errModel.AckPER(snr)
		}
		if s.rng.Float64() >= ackPER {
			rec.Acked = true
			s.Counters.ListenTimeS += mac.AckTime
			s.Counters.Acked++
			s.Counters.AckedTransmissions++
			s.Counters.SumTriesAcked += float64(try)
			return Acked, t + mac.AckTime
		}
		out = Unacked
	}
	return out, s.AckTimeout(t)
}

// AckTimeout waits out the ACK-wait timeout from time t, the end of an
// attempt that drew no ACK, and returns the instant it expires.
func (s *Sender) AckTimeout(t float64) float64 {
	s.Counters.ListenTimeS += mac.AckWaitTimeout
	return t + mac.AckWaitTimeout
}

// Complete ends the packet's service at time t: a radio drop unless it was
// delivered, and the service-time and delay sums.
func (s *Sender) Complete(rec *PacketRecord, t float64) {
	if !rec.Delivered {
		s.Counters.RadioDrops++
	}
	rec.ServiceEnd = t
	s.Counters.SumServiceTime += t - rec.ServiceStart
	s.Counters.Serviced++
	if rec.Delivered {
		s.Counters.SumDelay += t - rec.GenTime
		s.Counters.DeliveredWithDelay++
	}
}
